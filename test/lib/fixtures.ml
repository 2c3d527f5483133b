(* Shared programs used across the test-suite: the paper's worked
   examples, plus small targeted programs. *)

(* Figure 1 of the paper: Lib/Counter.  [Lib.set]/[Lib.update] are
   synchronized; sharing one Counter between two Libs races on count. *)
let fig1 =
  {|
class Counter {
  int count;
  void inc() { this.count = this.count + 1; }
  int get() { return this.count; }
}

class Lib {
  Counter c;
  Lib() { this.c = new Counter(); }
  synchronized void update() { this.c.inc(); }
  synchronized void set(Counter x) { this.c = x; }
}

class Seed {
  static void main() {
    Lib p = new Lib();
    Counter r = new Counter();
    p.set(r);
    p.update();
    int n = r.get();
    Sys.print(n);
  }
}
|}

(* Figure 8/11 of the paper: method foo with a synchronized body, an
   uncontrollable write (t.o := new O()) and a controllable one
   (b.y := y).  [O] stands in for the rand() result. *)
let fig8 =
  {|
class O {
  int v;
}

class X {
  O o;
}

class Y {
  int tag;
}

class A {
  X x;
  Y y;
  A() { this.x = new X(); }
  void foo(Y y) {
    synchronized (this) {
      A b = this;
      X t = b.x;
      t.o = new O();
      b.y = y;
    }
  }
}

class Seed {
  static void main() {
    A a = new A();
    Y y = new Y();
    a.foo(y);
  }
}
|}

(* Figure 13 of the paper: foo (races on x.o), bar (sets A.x from Z.w),
   baz (sets Z.w).  The derived context is z.baz(x); a.bar(z); a'.bar(z). *)
let fig13 =
  {|
class O {
  int v;
}

class X {
  O o;
  X() { this.o = new O(); }
}

class Y {
  int tag;
}

class A {
  X x;
  Y y;
  A() { this.x = new X(); }
  void foo(Y y) {
    synchronized (this) {
      A b = this;
      X t = b.x;
      t.o = new O();
      b.y = y;
    }
  }
  void bar(Z z) {
    this.x = z.w;
  }
}

class Z {
  X w;
  void baz(X x) {
    this.w = x;
  }
}

class Seed {
  static void main() {
    A a = new A();
    Y y = new Y();
    Z z = new Z();
    X x = new X();
    z.baz(x);
    a.bar(z);
    a.foo(y);
  }
}
|}

(* The §3.2 return-rule snippet: foo allocates w locally but wires
   client-controlled state into it, so Ir.z and Ir.z.f are settable. *)
let return_rule =
  {|
class P {
  int tag;
}

class Box {
  P f;
}

class W {
  Box z;
}

class Lib {
  W foo(Box x, P y) {
    x.f = y;
    W w = new W();
    w.z = x;
    return w;
  }
}

class Seed {
  static void main() {
    Lib lib = new Lib();
    Box b = new Box();
    P p = new P();
    W w = lib.foo(b, p);
  }
}
|}

(* A correctly synchronized counter: all accesses under one lock; no
   detector should report anything. *)
let safe_counter =
  {|
class SafeCounter {
  int count;
  synchronized void inc() { this.count = this.count + 1; }
  synchronized int get() { return this.count; }
}

class Main {
  static int main() {
    SafeCounter c = new SafeCounter();
    thread t1 = spawn c.inc();
    thread t2 = spawn c.inc();
    join t1;
    join t2;
    return c.get();
  }
}
|}

(* An unsynchronized counter driven by two spawned threads: the
   textbook lost-update race. *)
let racy_counter =
  {|
class RacyCounter {
  int count;
  void inc() { this.count = this.count + 1; }
  synchronized int get() { return this.count; }
}

class Main {
  static int main() {
    RacyCounter c = new RacyCounter();
    thread t1 = spawn c.inc();
    thread t2 = spawn c.inc();
    join t1;
    join t2;
    return c.get();
  }
}
|}

(* Classic deadlock: two locks taken in opposite orders. *)
let deadlock =
  {|
class Pair {
  Pair other;
  int v;
  void set(Pair o) { this.other = o; }
  void ab() {
    synchronized (this) {
      synchronized (this.other) { this.v = 1; }
    }
  }
}

class Main {
  static void main() {
    Pair a = new Pair();
    Pair b = new Pair();
    a.set(b);
    b.set(a);
    thread t1 = spawn a.ab();
    thread t2 = spawn b.ab();
    join t1;
    join t2;
  }
}
|}

(* QCheck suites run on a pinned RNG so CI failures replay exactly.
   Set NARADA_QCHECK_RANDOM=1 to explore fresh seeds locally; the
   chosen seed is printed so a failure can be pinned afterwards. *)
let qcheck_rand () =
  match Sys.getenv_opt "NARADA_QCHECK_RANDOM" with
  | Some ("1" | "true" | "yes") ->
    Random.self_init ();
    let seed = Random.bits () in
    Printf.printf "qcheck: random seed %d\n%!" seed;
    Random.State.make [| seed |]
  | _ -> Random.State.make [| 0x5eed |]

let qcheck_case test = QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) test

let compile src = Jir.Compile.compile_source src

let analyze ?(client = "Seed") src =
  match
    Narada_core.Pipeline.analyze_source src ~client_classes:[ client ]
      ~seed_cls:client ~seed_meth:"main"
  with
  | Ok an -> an
  | Error e -> failwith ("pipeline failed: " ^ e)

(* [sched] that also records its picks: the scheduler to run, and the
   tids it picked so far, in order.  A pick whose thread turns out
   blocked is recorded too, so replaying the list one decision per pick
   ([Conc.Scheduler.replay]) retraces the run. *)
let recording (sched : Conc.Scheduler.t) : Conc.Scheduler.t * (unit -> int list) =
  let picks = ref [] in
  let record m runnable live =
    let pick = sched m runnable live in
    Option.iter (fun th -> picks := Runtime.Machine.thread_id th :: !picks) pick;
    pick
  in
  (record, fun () -> List.rev !picks)

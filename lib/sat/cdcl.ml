(* MiniSAT-style CDCL on a flat clause arena.

   Literals are packed ({!Lit}): external DIMACS literal [l] maps to
   [2*(|l|-1) + (l<0)]; [neg l = l lxor 1].  Assignments are one byte per
   variable in {!Lit.Lbool} coding (0 false / 1 true / 2 undef), so a
   literal evaluates with one byte load and one xor: 0 false, 1 true,
   >= 2 undef.

   Every clause lives in the {!Arena}: a [Cref.t] is a word offset into
   one flat int array (header + activity + literals inline), so
   propagation walks contiguous memory instead of chasing a pointer per
   clause.  Watchers carry a blocking literal — a cached literal of the
   clause checked before the arena is touched; when it is already true
   the clause is satisfied and propagation skips the clause body
   entirely (the common case on clause-dense Full-Lock miters). *)

type outcome = Sat | Unsat | Unknown

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
  learned_clauses : int;
  learned_literals : int;
  reductions : int;
  max_decision_level : int;
}

let zero_stats =
  {
    decisions = 0;
    propagations = 0;
    conflicts = 0;
    restarts = 0;
    learned_clauses = 0;
    learned_literals = 0;
    reductions = 0;
    max_decision_level = 0;
  }

let add_stats a b =
  {
    decisions = a.decisions + b.decisions;
    propagations = a.propagations + b.propagations;
    conflicts = a.conflicts + b.conflicts;
    restarts = a.restarts + b.restarts;
    learned_clauses = a.learned_clauses + b.learned_clauses;
    learned_literals = a.learned_literals + b.learned_literals;
    reductions = a.reductions + b.reductions;
    max_decision_level = max a.max_decision_level b.max_decision_level;
  }

let sub_stats a b =
  {
    decisions = a.decisions - b.decisions;
    propagations = a.propagations - b.propagations;
    conflicts = a.conflicts - b.conflicts;
    restarts = a.restarts - b.restarts;
    learned_clauses = a.learned_clauses - b.learned_clauses;
    learned_literals = a.learned_literals - b.learned_literals;
    reductions = a.reductions - b.reductions;
    max_decision_level = a.max_decision_level;
  }

(* Deep distribution telemetry (DESIGN.md §4f): learnt-clause quality and
   search-shape histograms, recorded in the conflict path only when
   [Fl_obs.set_deep] is on — the off cost is one atomic load and branch
   per conflict.  Striped atomics, so sweep domains merge. *)
let h_lbd = Fl_obs.Hist.make "cdcl.lbd"
let h_learnt_len = Fl_obs.Hist.make "cdcl.learnt_len"
let h_conflict_level = Fl_obs.Hist.make "cdcl.conflict_level"
let h_props_per_decision = Fl_obs.Hist.make "cdcl.props_per_decision"

type budget = { max_conflicts : int; deadline : float }

let no_budget = { max_conflicts = -1; deadline = -1.0 }
let budget_conflicts n = { no_budget with max_conflicts = n }
let budget_seconds s = { no_budget with deadline = Unix.gettimeofday () +. s }

(* Search constants: VSIDS activity decay, learnt-clause activity decay,
   and the conflict count of the first Luby restart segment.  Variables
   decided before any phase was saved go false first. *)
let var_decay_factor = 0.95
let clause_decay_factor = 0.999
let restart_base = 64

(* Growable int vector. *)
module Vec = struct
  type t = { mutable data : int array; mutable size : int }

  let create () = { data = Array.make 8 0; size = 0 }

  let push v x =
    if v.size = Array.length v.data then begin
      let data' = Array.make (v.size * 2) 0 in
      Array.blit v.data 0 data' 0 v.size;
      v.data <- data'
    end;
    Array.unsafe_set v.data v.size x;
    v.size <- v.size + 1

  let get v i = Array.unsafe_get v.data i
  let set v i x = Array.unsafe_set v.data i x
  let size v = v.size
  let shrink v n = v.size <- n
end

(* Indexed max-heap over variables ordered by activity. *)
module Heap = struct
  type t = {
    mutable heap : int array;  (* heap position -> var *)
    mutable index : int array;  (* var -> heap position, -1 if absent *)
    mutable size : int;
    act : float array ref;  (* indirection: activity array is re-allocated on growth *)
  }

  let create act = { heap = Array.make 8 0; index = Array.make 8 (-1); size = 0; act }

  let grow h n =
    if n > Array.length h.index then begin
      let cap = max n (2 * Array.length h.index) in
      let index' = Array.make cap (-1) in
      Array.blit h.index 0 index' 0 (Array.length h.index);
      h.index <- index';
      let heap' = Array.make cap 0 in
      Array.blit h.heap 0 heap' 0 h.size;
      h.heap <- heap'
    end

  let lt h a b = !(h.act).(a) > !(h.act).(b)  (* max-heap on activity *)

  let swap h i j =
    let vi = h.heap.(i) and vj = h.heap.(j) in
    h.heap.(i) <- vj;
    h.heap.(j) <- vi;
    h.index.(vi) <- j;
    h.index.(vj) <- i

  let rec up h i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if lt h h.heap.(i) h.heap.(parent) then begin
        swap h i parent;
        up h parent
      end
    end

  let rec down h i =
    let left = (2 * i) + 1 and right = (2 * i) + 2 in
    let best = ref i in
    if left < h.size && lt h h.heap.(left) h.heap.(!best) then best := left;
    if right < h.size && lt h h.heap.(right) h.heap.(!best) then best := right;
    if !best <> i then begin
      swap h i !best;
      down h !best
    end

  let mem h v = v < Array.length h.index && h.index.(v) >= 0

  let insert h v =
    grow h (v + 1);
    if not (mem h v) then begin
      h.heap.(h.size) <- v;
      h.index.(v) <- h.size;
      h.size <- h.size + 1;
      up h h.index.(v)
    end

  let decrease h v = if mem h v then up h h.index.(v)  (* activity increased *)

  let pop h =
    let v = h.heap.(0) in
    h.index.(v) <- -1;
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.heap.(0) <- h.heap.(h.size);
      h.index.(h.heap.(0)) <- 0;
      down h 0
    end;
    v

  let is_empty h = h.size = 0
end

type t = {
  mutable nvars : int;
  mutable ok : bool;  (* false once a top-level contradiction is derived *)
  arena : Arena.t;  (* every clause, problem + learnt, packed flat *)
  mutable cla_inc : float;
  mutable reductions : int;
  mutable assigns : Bytes.t;  (* var -> Lbool: 0 false / 1 true / 2 undef *)
  mutable level : int array;
  mutable reason : int array;  (* var -> cref or Cref.none *)
  mutable watches : Vec.t array;
      (* lit -> flat (blocker, cref) pairs, stride 2.  The blocker is
         some other literal of the clause; when it is already true the
         clause is satisfied and the arena is never touched. *)
  mutable bin_watches : Vec.t array;
      (* lit -> flat (implied_lit, cref) pairs, stride 2: binary
         clauses propagate off this list without touching the clause
         arena.  Entries are static — no watch surgery — and complete
         (each binary clause is listed under both its literals). *)
  mutable activity : float array ref;
  mutable polarity : Bytes.t;  (* saved phase: 0 -> pick false first *)
  mutable seen : Bytes.t;  (* scratch for conflict analysis *)
  heap : Heap.t;
  trail : Vec.t;
  trail_lim : Vec.t;
  mutable qhead : int;
  mutable var_inc : float;
  (* Memoized Luby sequence, 1-based: luby.(i-1) = luby(i).  Grows by
     one entry per restart instead of re-deriving the sequence
     recursively from scratch each time. *)
  luby : Vec.t;
  (* statistics *)
  mutable n_decisions : int;
  mutable n_propagations : int;
  mutable n_conflicts : int;
  mutable n_restarts : int;
  mutable n_learned : int;
  mutable n_learned_lits : int;
  mutable max_dl : int;
  mutable last_model : Bytes.t option;
  (* deep-telemetry scratch: stamped level marks for O(len) LBD, and the
     propagation/decision watermarks of the previous conflict *)
  mutable lbd_seen : int array;
  mutable lbd_stamp : int;
  mutable deep_mark_props : int;
  mutable deep_mark_decisions : int;
  (* periodic progress hook: fires every [progress_every] conflicts with the
     stat deltas accumulated since the last firing.  [progress_next] is
     [max_int] when disabled, so the hot-loop check is one int compare. *)
  mutable progress_every : int;
  mutable progress_next : int;
  mutable progress_mark : stats;
  mutable progress_cb : stats -> unit;
}

let create () =
  let activity = ref (Array.make 8 0.0) in
  {
    nvars = 0;
    ok = true;
    arena = Arena.create ();
    cla_inc = 1.0;
    reductions = 0;
    assigns = Bytes.make 8 '\002';
    level = Array.make 8 0;
    reason = Array.make 8 Arena.Cref.none;
    watches = Array.init 16 (fun _ -> Vec.create ());
    bin_watches = Array.init 16 (fun _ -> Vec.create ());
    activity;
    polarity = Bytes.make 8 '\000';
    seen = Bytes.make 8 '\000';
    heap = Heap.create activity;
    trail = Vec.create ();
    trail_lim = Vec.create ();
    qhead = 0;
    var_inc = 1.0;
    luby = Vec.create ();
    n_decisions = 0;
    n_propagations = 0;
    n_conflicts = 0;
    n_restarts = 0;
    n_learned = 0;
    n_learned_lits = 0;
    max_dl = 0;
    last_model = None;
    lbd_seen = Array.make 8 0;
    lbd_stamp = 0;
    deep_mark_props = 0;
    deep_mark_decisions = 0;
    progress_every = 0;
    progress_next = max_int;
    progress_mark = zero_stats;
    progress_cb = ignore;
  }

let num_vars s = s.nvars
let num_clauses s = Arena.num_clauses s.arena
let num_learnts s = Arena.num_learnts s.arena

let ensure_vars s n =
  if n > s.nvars then begin
    let old_cap = Bytes.length s.assigns in
    if n > old_cap then begin
      let cap = max n (2 * old_cap) in
      let assigns' = Bytes.make cap '\002' in
      Bytes.blit s.assigns 0 assigns' 0 old_cap;
      s.assigns <- assigns';
      let polarity' = Bytes.make cap '\000' in
      Bytes.blit s.polarity 0 polarity' 0 old_cap;
      s.polarity <- polarity';
      let seen' = Bytes.make cap '\000' in
      Bytes.blit s.seen 0 seen' 0 old_cap;
      s.seen <- seen';
      let level' = Array.make cap 0 in
      Array.blit s.level 0 level' 0 old_cap;
      s.level <- level';
      let reason' = Array.make cap Arena.Cref.none in
      Array.blit s.reason 0 reason' 0 old_cap;
      s.reason <- reason';
      let act' = Array.make cap 0.0 in
      Array.blit !(s.activity) 0 act' 0 old_cap;
      s.activity := act';
      let watches' = Array.init (2 * cap) (fun _ -> Vec.create ()) in
      Array.blit s.watches 0 watches' 0 (Array.length s.watches);
      s.watches <- watches';
      let bin' = Array.init (2 * cap) (fun _ -> Vec.create ()) in
      Array.blit s.bin_watches 0 bin' 0 (Array.length s.bin_watches);
      s.bin_watches <- bin'
    end;
    for v = s.nvars to n - 1 do
      Heap.insert s.heap v
    done;
    s.nvars <- n
  end

(* --- value manipulation --- *)

let var_of l = l lsr 1
let lneg l = l lxor 1
let lit_of_dimacs = Lit.of_dimacs
let value_var s v = Lit.value_var s.assigns v

(* 0 = false, 1 = true, >= 2 = undef (see {!Lit.value}). *)
let value_lit s l = Lit.value s.assigns l

let decision_level s = Vec.size s.trail_lim

let stats s =
  {
    decisions = s.n_decisions;
    propagations = s.n_propagations;
    conflicts = s.n_conflicts;
    restarts = s.n_restarts;
    learned_clauses = s.n_learned;
    learned_literals = s.n_learned_lits;
    reductions = s.reductions;
    max_decision_level = s.max_dl;
  }

let enqueue s l reason =
  let v = var_of l in
  Lit.assign s.assigns l;
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  Vec.push s.trail l

let var_bump s v =
  let act = !(s.activity) in
  act.(v) <- act.(v) +. s.var_inc;
  if act.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      act.(i) <- act.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  Heap.decrease s.heap v

let var_decay s = s.var_inc <- s.var_inc /. var_decay_factor

let cla_bump s ci =
  if Arena.learnt s.arena ci then begin
    let a = Arena.activity s.arena ci +. s.cla_inc in
    Arena.set_activity s.arena ci a;
    if a > 1e20 then begin
      Arena.iter_learnts s.arena (fun c ->
          Arena.set_activity s.arena c (Arena.activity s.arena c *. 1e-20));
      s.cla_inc <- s.cla_inc *. 1e-20
    end
  end

let cla_decay s = s.cla_inc <- s.cla_inc /. clause_decay_factor

let cancel_until s target =
  if decision_level s > target then begin
    let bound = Vec.get s.trail_lim target in
    let i = ref (Vec.size s.trail - 1) in
    while !i >= bound do
      let l = Vec.get s.trail !i in
      let v = var_of l in
      Bytes.unsafe_set s.polarity v (if l land 1 = 0 then '\001' else '\000');
      Lit.unassign s.assigns v;
      s.reason.(v) <- Arena.Cref.none;
      Heap.insert s.heap v;
      decr i
    done;
    Vec.shrink s.trail bound;
    Vec.shrink s.trail_lim target;
    s.qhead <- Vec.size s.trail
  end

(* --- clause management --- *)

(* Register a clause (already in the arena) with the watch scheme: binary
   clauses go on the static stride-2 binary lists (both directions);
   longer clauses watch slots 0 and 1, each watcher carrying the other
   watched literal as its blocker. *)
let attach s ci =
  let l0 = Arena.lit s.arena ci 0 and l1 = Arena.lit s.arena ci 1 in
  if Arena.size s.arena ci = 2 then begin
    Vec.push s.bin_watches.(l0) l1;
    Vec.push s.bin_watches.(l0) ci;
    Vec.push s.bin_watches.(l1) l0;
    Vec.push s.bin_watches.(l1) ci
  end
  else begin
    Vec.push s.watches.(l0) l1;
    Vec.push s.watches.(l0) ci;
    Vec.push s.watches.(l1) l0;
    Vec.push s.watches.(l1) ci
  end

let push_clause ?(learnt = false) s lits =
  let ci = Arena.alloc s.arena ~learnt lits in
  attach s ci;
  ci

(* Add a problem clause of packed literals; assumes trail is at level 0.
   The array is scratch: sorted and compacted in place, no intermediate
   lists.  Simplifies against permanent (level-0) assignments, drops
   duplicate literals and detects tautologies. *)
let add_internal s lits =
  if s.ok then begin
    (* Keep undefined literals; a true literal satisfies the clause. *)
    let n = Array.length lits in
    let w = ref 0 in
    let sat = ref false in
    (let i = ref 0 in
     while (not !sat) && !i < n do
       let l = lits.(!i) in
       (match value_lit s l with
        | 1 -> sat := true
        | 0 -> ()
        | _ ->
          lits.(!w) <- l;
          incr w);
       incr i
     done);
    if not !sat then begin
      let kept = Array.sub lits 0 !w in
      Array.sort compare kept;
      (* Deduplicate in place; adjacent [2v, 2v+1] is a tautology. *)
      let m = Array.length kept in
      let w = ref 0 in
      (let i = ref 0 in
       while (not !sat) && !i < m do
         let l = kept.(!i) in
         if !i + 1 < m && kept.(!i + 1) = lneg l then sat := true
         else if !w > 0 && kept.(!w - 1) = l then ()
         else begin
           kept.(!w) <- l;
           incr w
         end;
         incr i
       done);
      if not !sat then
        if !w = 0 then s.ok <- false
        else if !w = 1 then begin
          (* Unit at level 0: enqueue permanently (propagated on next
             solve). *)
          match value_lit s kept.(0) with
          | 1 -> ()
          | 0 -> s.ok <- false
          | _ -> enqueue s kept.(0) Arena.Cref.none
        end
        else ignore (push_clause s (Array.sub kept 0 !w))
    end
  end

let add_clause_a s lits =
  Array.iter (fun l -> ensure_vars s (abs l)) lits;
  cancel_until s 0;
  add_internal s (Array.map lit_of_dimacs lits)

let add_clause s lits = add_clause_a s (Array.of_list lits)

let of_formula f =
  let s = create () in
  ensure_vars s (Fl_cnf.Formula.num_vars f);
  Fl_cnf.Formula.iter_clauses f (fun clause ->
      cancel_until s 0;
      add_internal s (Array.map lit_of_dimacs clause));
  s

(* --- propagation --- *)

(* Returns conflicting cref or -1. *)
let propagate s =
  let arena = s.arena in
  let conflict = ref (-1) in
  while !conflict < 0 && s.qhead < Vec.size s.trail do
    let p = Vec.get s.trail s.qhead in
    s.qhead <- s.qhead + 1;
    s.n_propagations <- s.n_propagations + 1;
    let false_lit = lneg p in
    (* Binary fast path: every binary clause containing [false_lit] now
       implies its other literal.  The list is static, so this is a flat
       scan with no arena access and no watch-list surgery. *)
    let bw = s.bin_watches.(false_lit) in
    let nb = Vec.size bw in
    let b = ref 0 in
    while !conflict < 0 && !b < nb do
      let other = Vec.get bw !b in
      (match value_lit s other with
       | 1 -> ()
       | 0 ->
         conflict := Vec.get bw (!b + 1);
         s.qhead <- Vec.size s.trail
       | _ -> enqueue s other (Vec.get bw (!b + 1)));
      b := !b + 2
    done;
    if !conflict < 0 then begin
      let ws = s.watches.(false_lit) in
      let n = Vec.size ws in
      let j = ref 0 in
      let i = ref 0 in
      while !i < n do
        let blocker = Vec.get ws !i in
        let ci = Vec.get ws (!i + 1) in
        i := !i + 2;
        (* Blocking literal: when it is already true the clause is
           satisfied and the arena is never dereferenced. *)
        if value_lit s blocker = 1 then begin
          Vec.set ws !j blocker;
          Vec.set ws (!j + 1) ci;
          j := !j + 2
        end
        else begin
          (* Ensure the false literal is in slot 1. *)
          let l0 = Arena.lit arena ci 0 in
          let first =
            if l0 = false_lit then begin
              let l1 = Arena.lit arena ci 1 in
              Arena.set_lit arena ci 0 l1;
              Arena.set_lit arena ci 1 false_lit;
              l1
            end
            else l0
          in
          if value_lit s first = 1 then begin
            (* Clause already satisfied: keep the watch, cache the true
               literal as the new blocker. *)
            Vec.set ws !j first;
            Vec.set ws (!j + 1) ci;
            j := !j + 2
          end
          else begin
            (* Look for a new literal to watch. *)
            let len = Arena.size arena ci in
            let found = ref false in
            let k = ref 2 in
            while (not !found) && !k < len do
              let lk = Arena.lit arena ci !k in
              if value_lit s lk <> 0 then begin
                Arena.set_lit arena ci 1 lk;
                Arena.set_lit arena ci !k false_lit;
                Vec.push s.watches.(lk) first;
                Vec.push s.watches.(lk) ci;
                found := true
              end;
              incr k
            done;
            if not !found then begin
              (* Unit or conflicting. *)
              Vec.set ws !j first;
              Vec.set ws (!j + 1) ci;
              j := !j + 2;
              if value_lit s first = 0 then begin
                conflict := ci;
                s.qhead <- Vec.size s.trail;
                (* Copy back the rest of the watch list. *)
                while !i < n do
                  Vec.set ws !j (Vec.get ws !i);
                  incr j;
                  incr i
                done
              end
              else enqueue s first ci
            end
          end
        end
      done;
      Vec.shrink ws !j
    end
  done;
  !conflict

(* --- conflict analysis (first UIP) --- *)

let analyze s confl =
  let arena = s.arena in
  let learnt = ref [] in
  let counter = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let index = ref (Vec.size s.trail - 1) in
  let marked = ref [] in
  (* every var whose seen flag was raised *)
  let continue = ref true in
  while !continue do
    cla_bump s !confl;
    (* Skip the implied literal of a reason clause by value, not position:
       binary reasons come off the static binary watch lists, which never
       reorder the arena clause. *)
    let len = Arena.size arena !confl in
    for k = 0 to len - 1 do
      let q = Arena.lit arena !confl k in
      let v = var_of q in
      if q <> !p && Bytes.get s.seen v = '\000' && s.level.(v) > 0 then begin
        Bytes.set s.seen v '\001';
        marked := v :: !marked;
        var_bump s v;
        if s.level.(v) >= decision_level s then incr counter
        else learnt := q :: !learnt
      end
    done;
    (* Walk the trail backwards to the next marked literal. *)
    while Bytes.get s.seen (var_of (Vec.get s.trail !index)) = '\000' do
      decr index
    done;
    p := Vec.get s.trail !index;
    decr index;
    decr counter;
    if !counter = 0 then continue := false
    else confl := s.reason.(var_of !p)
  done;
  (* The UIP must not count as marked during minimization. *)
  Bytes.set s.seen (var_of !p) '\000';
  (* Local conflict-clause minimization: a tail literal is redundant when its
     reason clause contains only marked or level-0 literals — self-resolution
     removes it without changing the clause's meaning. *)
  let redundant q =
    let v = var_of q in
    let r = s.reason.(v) in
    r >= 0
    &&
    let len = Arena.size arena r in
    let ok = ref true in
    let k = ref 0 in
    while !ok && !k < len do
      let lv = var_of (Arena.lit arena r !k) in
      if not (lv = v || s.level.(lv) = 0 || Bytes.get s.seen lv = '\001') then
        ok := false;
      incr k
    done;
    !ok
  in
  let tail = List.filter (fun q -> not (redundant q)) !learnt in
  (* Clear every raised flag (including dropped literals'). *)
  List.iter (fun v -> Bytes.set s.seen v '\000') !marked;
  let learnt_arr = Array.of_list (lneg !p :: tail) in
  (* Backjump level = highest level among the (minimized) tail. *)
  let btlevel = ref 0 in
  for k = 1 to Array.length learnt_arr - 1 do
    if s.level.(var_of learnt_arr.(k)) > !btlevel then
      btlevel := s.level.(var_of learnt_arr.(k))
  done;
  (* Watch invariant: slot 1 must hold the highest-level tail literal so that
     after backjumping the watched literal is never a stale false literal
     from a lower level (that would silence future unit propagations). *)
  if Array.length learnt_arr > 2 then begin
    let best = ref 1 in
    for k = 2 to Array.length learnt_arr - 1 do
      if s.level.(var_of learnt_arr.(k)) > s.level.(var_of learnt_arr.(!best))
      then best := k
    done;
    let tmp = learnt_arr.(1) in
    learnt_arr.(1) <- learnt_arr.(!best);
    learnt_arr.(!best) <- tmp
  end;
  learnt_arr, !btlevel

(* --- search --- *)

(* Luby restart sequence (1-based): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
   Memoized iteratively: entry [i] only ever refers back to an entry
   [< i], so the cache fills left to right, one entry per restart. *)
let luby s i =
  while Vec.size s.luby < i do
    let j = Vec.size s.luby + 1 in
    (* Smallest k with 2^k - 1 >= j. *)
    let k = ref 1 in
    while (1 lsl !k) - 1 < j do
      incr k
    done;
    let v =
      if (1 lsl !k) - 1 = j then 1 lsl (!k - 1)
      else Vec.get s.luby (j - ((1 lsl (!k - 1)) - 1) - 1)
    in
    Vec.push s.luby v
  done;
  Vec.get s.luby (i - 1)

let out_of_budget budget s start_check =
  (budget.max_conflicts >= 0 && s.n_conflicts - start_check >= budget.max_conflicts)
  || (s.n_conflicts land 255 = 0
      && budget.deadline >= 0.0
      && Unix.gettimeofday () > budget.deadline)

(* Drop the less active half of the learnt clauses and compact the arena.
   Called only at decision level 0: level-0 reasons are never dereferenced
   by [analyze] (it skips level-0 variables), so clearing them is safe, and
   watches are rebuilt on literals that are not permanently false so no
   future propagation is silenced. *)
let reduce_db s =
  assert (decision_level s = 0);
  let arena = s.arena in
  (* Median learnt activity as the deletion threshold; keep binary clauses. *)
  let acts = ref [] in
  Arena.iter_learnts arena (fun ci ->
      if Arena.size arena ci > 2 then acts := Arena.activity arena ci :: !acts);
  let sorted = List.sort compare !acts in
  let threshold =
    match List.nth_opt sorted (List.length sorted / 2) with
    | Some v -> v
    | None -> infinity
  in
  Arena.iter_learnts arena (fun ci ->
      if Arena.size arena ci > 2 && Arena.activity arena ci <= threshold then
        Arena.kill arena ci);
  (* Compaction renumbers every surviving cref.  Reasons on the (level-0)
     trail are never read again — clear rather than remap them; watch
     lists are rebuilt from the compacted arena below. *)
  let _remap = Arena.compact arena in
  for i = 0 to Vec.size s.trail - 1 do
    s.reason.(var_of (Vec.get s.trail i)) <- Arena.Cref.none
  done;
  (* Rebuild watches, preferring literals that are not permanently false so
     satisfied-then-unwound clauses keep live watches. *)
  for l = 0 to (2 * s.nvars) - 1 do
    Vec.shrink s.watches.(l) 0;
    Vec.shrink s.bin_watches.(l) 0
  done;
  Arena.iter arena (fun ci ->
      let len = Arena.size arena ci in
      if len > 2 then begin
        let slot = ref 0 in
        let k = ref 0 in
        while !slot < 2 && !k < len do
          if value_lit s (Arena.lit arena ci !k) <> 0 then begin
            Arena.swap_lits arena ci !slot !k;
            incr slot
          end;
          incr k
        done
      end;
      attach s ci);
  s.reductions <- s.reductions + 1

(* Learnt-clause LBD (Audemard & Simon: number of distinct decision levels
   among the clause's literals) plus the other conflict-shape samples.
   Runs before backtracking, while the learnt literals' levels are still
   current; the stamped scratch array keeps it allocation-free. *)
let record_conflict_stats s learnt =
  Fl_obs.Hist.record h_conflict_level (decision_level s);
  Fl_obs.Hist.record h_learnt_len (Array.length learnt);
  let stamp = s.lbd_stamp + 1 in
  s.lbd_stamp <- stamp;
  let lbd = ref 0 in
  Array.iter
    (fun l ->
      let lv = s.level.(var_of l) in
      if lv >= Array.length s.lbd_seen then begin
        (* the scratch starts small and grows to the deepest level seen,
           rather than burdening ensure_vars *)
        let cap = max (lv + 1) (2 * Array.length s.lbd_seen) in
        let a = Array.make cap 0 in
        Array.blit s.lbd_seen 0 a 0 (Array.length s.lbd_seen);
        s.lbd_seen <- a
      end;
      if s.lbd_seen.(lv) <> stamp then begin
        s.lbd_seen.(lv) <- stamp;
        incr lbd
      end)
    learnt;
  Fl_obs.Hist.record h_lbd !lbd;
  let dp = s.n_propagations - s.deep_mark_props
  and dd = s.n_decisions - s.deep_mark_decisions in
  s.deep_mark_props <- s.n_propagations;
  s.deep_mark_decisions <- s.n_decisions;
  Fl_obs.Hist.record h_props_per_decision (dp / max 1 dd)

exception Found of outcome

let search s budget conflict_budget start_conflicts =
  let conflicts_this_run = ref 0 in
  try
    while true do
      let confl = propagate s in
      if confl >= 0 then begin
        s.n_conflicts <- s.n_conflicts + 1;
        incr conflicts_this_run;
        if decision_level s = 0 then begin
          s.ok <- false;
          raise (Found Unsat)
        end;
        let learnt, btlevel = analyze s confl in
        if Fl_obs.deep_enabled () then record_conflict_stats s learnt;
        cancel_until s (max btlevel 0) ;
        (match learnt with
         | [| unit_lit |] ->
           cancel_until s 0;
           (match value_lit s unit_lit with
            | 0 ->
              s.ok <- false;
              raise (Found Unsat)
            | 1 -> ()
            | _ -> enqueue s unit_lit Arena.Cref.none)
         | _ ->
           let ci = push_clause ~learnt:true s learnt in
           enqueue s learnt.(0) ci);
        s.n_learned <- s.n_learned + 1;
        s.n_learned_lits <- s.n_learned_lits + Array.length learnt;
        var_decay s;
        cla_decay s;
        if s.n_conflicts >= s.progress_next then begin
          let now = stats s in
          s.progress_cb (sub_stats now s.progress_mark);
          s.progress_mark <- now;
          s.progress_next <- s.n_conflicts + s.progress_every
        end;
        if out_of_budget budget s start_conflicts then raise (Found Unknown)
      end
      else begin
        (* No conflict: restart, or decide. *)
        if !conflicts_this_run >= conflict_budget then begin
          cancel_until s 0;
          s.n_restarts <- s.n_restarts + 1;
          if Fl_obs.enabled () then
            Fl_obs.emit
              ~fields:
                [
                  "restarts", Fl_obs.Int s.n_restarts;
                  "conflicts", Fl_obs.Int s.n_conflicts;
                  "learnts", Fl_obs.Int (Arena.num_learnts s.arena);
                ]
              "cdcl.restart";
          if Arena.num_learnts s.arena > 2000 + (500 * s.reductions) then
            reduce_db s;
          raise Exit
        end;
        (* Pick an unassigned variable by activity. *)
        let rec pick () =
          if Heap.is_empty s.heap then -1
          else begin
            let v = Heap.pop s.heap in
            if Lit.Lbool.is_undef (value_var s v) then v else pick ()
          end
        in
        let v = pick () in
        if v < 0 then raise (Found Sat)
        else begin
          let phase_true = Bytes.get s.polarity v = '\001' in
          let l = (2 * v) lor (if phase_true then 0 else 1) in
          Vec.push s.trail_lim (Vec.size s.trail);
          if decision_level s > s.max_dl then s.max_dl <- decision_level s;
          s.n_decisions <- s.n_decisions + 1;
          enqueue s l Arena.Cref.none
        end
      end
    done;
    assert false
  with
  | Found r -> Some r
  | Exit -> None

let solve ?(budget = no_budget) s =
  cancel_until s 0;
  if not s.ok then Unsat
  else begin
    let start_conflicts = s.n_conflicts in
    let rec run i =
      if out_of_budget budget s start_conflicts then Unknown
      else begin
        let conflict_budget = restart_base * luby s i in
        match search s budget conflict_budget start_conflicts with
        | Some r -> r
        | None -> run (i + 1)
      end
    in
    let result = run 1 in
    (match result with
     | Sat ->
       let m = Bytes.create s.nvars in
       for v = 0 to s.nvars - 1 do
         Bytes.set m v (if value_var s v = 1 then '\001' else '\000')
       done;
       s.last_model <- Some m
     | Unsat | Unknown -> s.last_model <- None);
    cancel_until s 0;
    result
  end

let value s v =
  match s.last_model with
  | None -> invalid_arg "Cdcl.value: no model (last solve was not Sat)"
  | Some m ->
    if v < 1 || v > Bytes.length m then invalid_arg "Cdcl.value: unknown variable";
    Bytes.get m (v - 1) = '\001'

let model s =
  match s.last_model with
  | None -> invalid_arg "Cdcl.model: no model (last solve was not Sat)"
  | Some m -> Array.init (Bytes.length m + 1) (fun i -> i > 0 && Bytes.get m (i - 1) = '\001')

(* Learnt-clause export (inprocessing replays them into a rebuilt
   solver): every live learnt clause, in DIMACS literals.  The callback must not touch
   the solver. *)
let iter_learnts s f =
  Arena.iter_learnts s.arena (fun ci ->
      let len = Arena.size s.arena ci in
      f (Array.init len (fun k -> Lit.to_dimacs (Arena.lit s.arena ci k))))

(* Forced learnt-database reduction at level 0 — the path DB reduction
   takes during search, exposed so tests and inprocessing hooks can drive
   arena compaction and the watch-list rebuild directly. *)
let reduce_now s =
  cancel_until s 0;
  if s.ok then reduce_db s

let set_progress s ~every cb =
  if every <= 0 then invalid_arg "Cdcl.set_progress: every must be positive";
  s.progress_every <- every;
  s.progress_next <- s.n_conflicts + every;
  s.progress_mark <- stats s;
  s.progress_cb <- cb

let pp_stats fmt st =
  Format.fprintf fmt
    "decisions %d, propagations %d, conflicts %d, restarts %d, learned %d (avg len %.1f), reductions %d, max level %d"
    st.decisions st.propagations st.conflicts st.restarts st.learned_clauses
    (if st.learned_clauses = 0 then 0.0
     else float_of_int st.learned_literals /. float_of_int st.learned_clauses)
    st.reductions st.max_decision_level

let solve_formula ?budget f =
  let s = of_formula f in
  let outcome = solve ?budget s in
  let m = match outcome with Sat -> Some (model s) | Unsat | Unknown -> None in
  outcome, m, stats s

(* Observability substrate.  Everything here is deliberately boring:
   striped atomic cells for metrics, a list of sinks for events,
   gettimeofday for clocks.  The one invariant that matters is the no-sink
   fast path — emit and with_span must cost a single branch when nothing is
   listening, and a histogram record must stay one atomic add whether or
   not anything ever reads it.

   Domain-safety (the Fl_par sweeps run attacks on worker domains):
   counters and histograms stripe their cells by domain id, so concurrent
   increments land on (mostly) distinct atomics and every read merges the
   stripes, so nothing is lost if a domain is still running.  Sink
   installation publishes through an [Atomic.t] and event delivery is
   serialized by a mutex, keeping JSONL lines whole under parallel
   emission.  Span depth is domain-local state. *)

type value = Int of int | Float of float | String of string | Bool of bool

type event = { ts : float; name : string; fields : (string * value) list }
type sink = event -> unit
type sink_id = int

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

module Json = struct
  exception Parse_error of string

  type t =
    | Jnull
    | Jbool of bool
    | Jint of int
    | Jfloat of float
    | Jstring of string
    | Jarr of t list
    | Jobj of (string * t) list

  let escape buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  (* %.17g round-trips any float; trim to %g when that already does.
     Non-finite floats have no JSON spelling: infinities print as the
     out-of-range literal 1e999 (which float_of_string reads back as
     infinity) and nan prints as null. *)
  let float_str f =
    if f <> f then "null"
    else if f = Float.infinity then "1e999"
    else if f = Float.neg_infinity then "-1e999"
    else if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.1f" f
    else
      let short = Printf.sprintf "%g" f in
      if float_of_string short = f then short else Printf.sprintf "%.17g" f

  let add_value buf = function
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_str f)
    | String s -> escape buf s
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")

  let value_to_string v =
    let buf = Buffer.create 16 in
    add_value buf v;
    Buffer.contents buf

  let string_to_string s =
    let buf = Buffer.create 16 in
    escape buf s;
    Buffer.contents buf

  let to_string e =
    let buf = Buffer.create 128 in
    Buffer.add_string buf "{\"ts\":";
    add_value buf (Float e.ts);
    Buffer.add_string buf ",\"event\":";
    escape buf e.name;
    List.iter
      (fun (k, v) ->
        Buffer.add_char buf ',';
        escape buf k;
        Buffer.add_char buf ':';
        add_value buf v)
      e.fields;
    Buffer.add_char buf '}';
    Buffer.contents buf

  (* Recursive-descent parser for the full JSON language; [of_string]
     restricts the result to the flat-object shape [to_string] emits, and
     the bench regression gate reads whole BENCH_*.json documents. *)
  type cursor = { text : string; mutable pos : int }

  let fail msg = raise (Parse_error msg)

  let peek cur =
    if cur.pos >= String.length cur.text then '\000' else cur.text.[cur.pos]

  let skip_ws cur =
    while
      cur.pos < String.length cur.text
      && (match cur.text.[cur.pos] with
          | ' ' | '\t' | '\n' | '\r' -> true
          | _ -> false)
    do
      cur.pos <- cur.pos + 1
    done

  let expect cur c =
    skip_ws cur;
    if peek cur <> c then
      fail (Printf.sprintf "expected %C at offset %d" c cur.pos)
    else cur.pos <- cur.pos + 1

  let parse_string cur =
    expect cur '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if cur.pos >= String.length cur.text then fail "unterminated string"
      else
        let c = cur.text.[cur.pos] in
        cur.pos <- cur.pos + 1;
        match c with
        | '"' -> Buffer.contents buf
        | '\\' ->
          (if cur.pos >= String.length cur.text then fail "bad escape"
           else
             let e = cur.text.[cur.pos] in
             cur.pos <- cur.pos + 1;
             match e with
             | '"' -> Buffer.add_char buf '"'
             | '\\' -> Buffer.add_char buf '\\'
             | '/' -> Buffer.add_char buf '/'
             | 'n' -> Buffer.add_char buf '\n'
             | 'r' -> Buffer.add_char buf '\r'
             | 't' -> Buffer.add_char buf '\t'
             | 'b' -> Buffer.add_char buf '\b'
             | 'f' -> Buffer.add_char buf '\012'
             | 'u' ->
               if cur.pos + 4 > String.length cur.text then fail "bad \\u"
               else begin
                 let hex = String.sub cur.text cur.pos 4 in
                 cur.pos <- cur.pos + 4;
                 let code =
                   try int_of_string ("0x" ^ hex)
                   with _ -> fail "bad \\u digits"
                 in
                 if code < 0x80 then Buffer.add_char buf (Char.chr code)
                 else
                   (* Non-ASCII escapes are not produced by to_string;
                      decode to UTF-8 for completeness. *)
                   Buffer.add_string buf
                     (if code < 0x800 then
                        let b0 = 0xC0 lor (code lsr 6)
                        and b1 = 0x80 lor (code land 0x3F) in
                        Printf.sprintf "%c%c" (Char.chr b0) (Char.chr b1)
                      else
                        let b0 = 0xE0 lor (code lsr 12)
                        and b1 = 0x80 lor ((code lsr 6) land 0x3F)
                        and b2 = 0x80 lor (code land 0x3F) in
                        Printf.sprintf "%c%c%c" (Char.chr b0) (Char.chr b1)
                          (Char.chr b2))
               end
             | _ -> fail "bad escape");
          go ()
        | c ->
          Buffer.add_char buf c;
          go ()
    in
    go ()

  let rec parse_value cur =
    skip_ws cur;
    match peek cur with
    | '{' ->
      cur.pos <- cur.pos + 1;
      let members = ref [] in
      skip_ws cur;
      if peek cur <> '}' then begin
        let rec go () =
          skip_ws cur;
          let k = parse_string cur in
          expect cur ':';
          let v = parse_value cur in
          members := (k, v) :: !members;
          skip_ws cur;
          if peek cur = ',' then begin
            cur.pos <- cur.pos + 1;
            go ()
          end
        in
        go ()
      end;
      expect cur '}';
      Jobj (List.rev !members)
    | '[' ->
      cur.pos <- cur.pos + 1;
      let items = ref [] in
      skip_ws cur;
      if peek cur <> ']' then begin
        let rec go () =
          let v = parse_value cur in
          items := v :: !items;
          skip_ws cur;
          if peek cur = ',' then begin
            cur.pos <- cur.pos + 1;
            go ()
          end
        in
        go ()
      end;
      expect cur ']';
      Jarr (List.rev !items)
    | '"' -> Jstring (parse_string cur)
    | 't' ->
      if cur.pos + 4 <= String.length cur.text
         && String.sub cur.text cur.pos 4 = "true"
      then begin
        cur.pos <- cur.pos + 4;
        Jbool true
      end
      else fail "bad literal"
    | 'f' ->
      if cur.pos + 5 <= String.length cur.text
         && String.sub cur.text cur.pos 5 = "false"
      then begin
        cur.pos <- cur.pos + 5;
        Jbool false
      end
      else fail "bad literal"
    | 'n' ->
      if cur.pos + 4 <= String.length cur.text
         && String.sub cur.text cur.pos 4 = "null"
      then begin
        cur.pos <- cur.pos + 4;
        Jnull
      end
      else fail "bad literal"
    | c when c = '-' || (c >= '0' && c <= '9') ->
      let start = cur.pos in
      let is_float = ref false in
      while
        cur.pos < String.length cur.text
        &&
        match cur.text.[cur.pos] with
        | '0' .. '9' | '-' | '+' -> true
        | '.' | 'e' | 'E' ->
          is_float := true;
          true
        | _ -> false
      do
        cur.pos <- cur.pos + 1
      done;
      let tok = String.sub cur.text start (cur.pos - start) in
      if !is_float then
        Jfloat (try float_of_string tok with _ -> fail "bad number")
      else Jint (try int_of_string tok with _ -> fail "bad number")
    | _ -> fail (Printf.sprintf "unexpected character at offset %d" cur.pos)

  let parse text =
    let cur = { text; pos = 0 } in
    let v = parse_value cur in
    skip_ws cur;
    if cur.pos <> String.length text then fail "trailing garbage";
    v

  (* Generic encoder — the inverse of [parse].  [to_string] above stays
     the dedicated flat-event fast path; this one serializes arbitrary
     trees (the serving layer's request/response frames). *)
  let rec add_json buf = function
    | Jnull -> Buffer.add_string buf "null"
    | Jbool b -> Buffer.add_string buf (if b then "true" else "false")
    | Jint i -> Buffer.add_string buf (string_of_int i)
    | Jfloat f -> Buffer.add_string buf (float_str f)
    | Jstring s -> escape buf s
    | Jarr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          add_json buf v)
        items;
      Buffer.add_char buf ']'
    | Jobj members ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape buf k;
          Buffer.add_char buf ':';
          add_json buf v)
        members;
      Buffer.add_char buf '}'

  let encode j =
    let buf = Buffer.create 128 in
    add_json buf j;
    Buffer.contents buf

  let member k = function Jobj ms -> List.assoc_opt k ms | _ -> None

  let number = function
    | Jint i -> Some (float_of_int i)
    | Jfloat f -> Some f
    | _ -> None

  let of_string line =
    let members =
      match parse line with
      | Jobj ms -> ms
      | _ -> fail "expected an object"
    in
    let scalar k = function
      | Jint i -> Int i
      | Jfloat f -> Float f
      | Jstring s -> String s
      | Jbool b -> Bool b
      | Jnull -> String "null"
      | Jobj _ | Jarr _ ->
        fail (Printf.sprintf "field %S is not a scalar" k)
    in
    let members = List.map (fun (k, v) -> (k, scalar k v)) members in
    let ts =
      match List.assoc_opt "ts" members with
      | Some (Float f) -> f
      | Some (Int i) -> float_of_int i
      | _ -> fail "missing ts"
    in
    let name =
      match List.assoc_opt "event" members with
      | Some (String s) -> s
      | _ -> fail "missing event"
    in
    let fields =
      List.filter (fun (k, _) -> k <> "ts" && k <> "event") members
    in
    { ts; name; fields }
end

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

let sinks : (sink_id * sink) list Atomic.t = Atomic.make []
let next_sink_id = Atomic.make 0

(* Serializes both sink-list mutation and event delivery; a sink body must
   not emit (the mutex is not re-entrant). *)
let sink_mutex = Mutex.create ()

let add_sink s =
  let id = 1 + Atomic.fetch_and_add next_sink_id 1 in
  Mutex.lock sink_mutex;
  Atomic.set sinks ((id, s) :: Atomic.get sinks);
  Mutex.unlock sink_mutex;
  id

let remove_sink id =
  Mutex.lock sink_mutex;
  Atomic.set sinks (List.filter (fun (i, _) -> i <> id) (Atomic.get sinks));
  Mutex.unlock sink_mutex

let with_sink s f =
  let id = add_sink s in
  Fun.protect ~finally:(fun () -> remove_sink id) f

(* Scoped sinks: installed on the calling domain only, for the extent of
   one callback.  The serving layer uses one per request, so concurrent
   attacks on worker domains each stream their own telemetry without
   seeing each other's events.  The list lives in DLS; a global count
   keeps the nothing-installed fast path at two atomic loads (the DLS
   lookup only happens once some domain has a scope open).  Delivery is
   domain-local state, so it runs OUTSIDE the global sink mutex — scoped
   sinks on different domains never serialize against each other.  Two
   sys-threads sharing one domain share the scope list; the finalizer
   removes by physical identity so interleaved scopes unwind safely, but
   emissions from the sibling thread during the scope will also reach the
   scoped sink (don't share a domain between independently-emitting
   threads). *)
let scoped_count = Atomic.make 0

let scoped_key : sink list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let scoped_here () =
  if Atomic.get scoped_count = 0 then [] else !(Domain.DLS.get scoped_key)

let with_scoped_sink s f =
  let cell = Domain.DLS.get scoped_key in
  cell := s :: !cell;
  Atomic.incr scoped_count;
  Fun.protect
    ~finally:(fun () ->
      Atomic.decr scoped_count;
      let rec drop = function
        | [] -> []
        | x :: rest -> if x == s then rest else x :: drop rest
      in
      cell := drop !cell)
    f

let enabled () = Atomic.get sinks <> [] || scoped_here () <> []

let emit ?(fields = []) name =
  match (Atomic.get sinks, scoped_here ()) with
  | [], [] -> ()
  | installed, scoped ->
    let e = { ts = Unix.gettimeofday (); name; fields } in
    (match installed with
     | [] -> ()
     | _ ->
       Mutex.lock sink_mutex;
       Fun.protect
         ~finally:(fun () -> Mutex.unlock sink_mutex)
         (fun () -> List.iter (fun (_, s) -> s e) installed));
    List.iter (fun s -> s e) scoped

(* Deep profiling switch: histograms in solver/pool hot paths guard on
   this instead of [enabled], so a bench run can populate distributions
   without paying for event delivery.  Off by default — the no-sink,
   no-deep cost of an instrumented conflict is one load and branch. *)
let deep = Atomic.make false
let set_deep b = Atomic.set deep b
let deep_enabled () = Atomic.get deep

(* ------------------------------------------------------------------ *)
(* Counters and histograms                                            *)
(* ------------------------------------------------------------------ *)

(* Counters are striped: each domain increments the atomic cell its id
   hashes to, and a read sums the stripes.  Uncontended in the common case
   (stripe count >= active domains), always exact at read time. *)
let stripes = 16 (* power of two *)

let stripe_index () = (Domain.self () :> int) land (stripes - 1)

(* Histograms bucket by log2: bucket 0 holds values <= 0, bucket i >= 1
   holds [2^(i-1), 2^i - 1].  63-bit ints need at most 63 significant
   bits, so 64 buckets cover the whole int range. *)
let hist_buckets = 64

(* The raw striped cell grid lives outside module [Hist] so the metric
   table's type can mention it before [Hist] (which needs [Json]) is
   defined. *)
type hist_cells = {
  hist_scale : float; (* display multiplier: value * scale = display units *)
  hist_grid : int Atomic.t array array; (* stripes x buckets *)
}

(* One global metric table.  [make] is idempotent per name, so modules
   declare their metrics at top level without coordination; asking for a
   name under the other metric kind is a programming error. *)
type metric = Mcounter of int Atomic.t array | Mhist of hist_cells

let metrics : (string, metric) Hashtbl.t = Hashtbl.create 64
let metrics_lock = Mutex.create () (* guards [metrics]; creation/snapshot only *)

let locked f =
  Mutex.lock metrics_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock metrics_lock) f

module Counter = struct
  type t = int Atomic.t array

  let make name =
    locked (fun () ->
        match Hashtbl.find_opt metrics name with
        | Some (Mcounter c) -> c
        | Some (Mhist _) ->
          invalid_arg
            (Printf.sprintf "Fl_obs.Counter.make: %S is a histogram" name)
        | None ->
          let c = Array.init stripes (fun _ -> Atomic.make 0) in
          Hashtbl.add metrics name (Mcounter c);
          c)

  let incr c = Atomic.incr c.(stripe_index ())
  let add c n = ignore (Atomic.fetch_and_add c.(stripe_index ()) n)
  let value c = Array.fold_left (fun acc cell -> acc + Atomic.get cell) 0 c
end

module Hist = struct
  type t = hist_cells

  type snap = { hname : string; hscale : float; hbuckets : int array }

  let make ?(scale = 1.0) name =
    locked (fun () ->
        match Hashtbl.find_opt metrics name with
        | Some (Mhist h) -> h
        | Some (Mcounter _) ->
          invalid_arg
            (Printf.sprintf "Fl_obs.Hist.make: %S is a counter" name)
        | None ->
          let h =
            {
              hist_scale = scale;
              hist_grid =
                Array.init stripes (fun _ ->
                    Array.init hist_buckets (fun _ -> Atomic.make 0));
            }
          in
          Hashtbl.add metrics name (Mhist h);
          h)

  (* Significant-bit count by binary steps — a handful of shifts, no loop
     proportional to the value. *)
  let bucket_of v =
    if v <= 0 then 0
    else begin
      let v = ref v and b = ref 1 in
      if !v lsr 32 > 0 then begin
        b := !b + 32;
        v := !v lsr 32
      end;
      if !v lsr 16 > 0 then begin
        b := !b + 16;
        v := !v lsr 16
      end;
      if !v lsr 8 > 0 then begin
        b := !b + 8;
        v := !v lsr 8
      end;
      if !v lsr 4 > 0 then begin
        b := !b + 4;
        v := !v lsr 4
      end;
      if !v lsr 2 > 0 then begin
        b := !b + 2;
        v := !v lsr 2
      end;
      if !v lsr 1 > 0 then incr b;
      !b
    end

  let record h v = Atomic.incr h.hist_grid.(stripe_index ()).(bucket_of v)

  (* Times are recorded in units of the histogram's scale (1e-6 for the
     stock time histograms, i.e. microseconds), rounded to nearest. *)
  let record_time h seconds =
    record h (int_of_float ((seconds /. h.hist_scale) +. 0.5))

  let read_cells name h =
    let buckets =
      Array.init hist_buckets (fun b ->
          let n = ref 0 in
          for s = 0 to stripes - 1 do
            n := !n + Atomic.get h.hist_grid.(s).(b)
          done;
          !n)
    in
    { hname = name; hscale = h.hist_scale; hbuckets = buckets }

  let count s = Array.fold_left ( + ) 0 s.hbuckets

  (* Bucket i covers [2^(i-1), 2^i - 1]; its midpoint is 1.5*2^(i-1)-0.5
     (exact for i=1, the singleton bucket {1}). *)
  let midpoint i =
    if i = 0 then 0.0 else (1.5 *. (2.0 ** float_of_int (i - 1))) -. 0.5

  let upper_bound s i =
    if i = 0 then 0.0 else ((2.0 ** float_of_int i) -. 1.0) *. s.hscale

  let sum s =
    let acc = ref 0.0 in
    Array.iteri
      (fun i n -> acc := !acc +. (float_of_int n *. midpoint i *. s.hscale))
      s.hbuckets;
    !acc

  (* [quantile s q] is the scaled upper bound of the bucket holding the
     q-th sample (an upper estimate, exact to within the bucket width). *)
  let quantile s q =
    let total = count s in
    if total = 0 then 0.0
    else begin
      let q = Float.min 1.0 (Float.max 0.0 q) in
      let target =
        Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int total)))
      in
      let cum = ref 0 and found = ref 0 in
      (try
         Array.iteri
           (fun i n ->
             cum := !cum + n;
             if !cum >= target then begin
               found := i;
               raise Exit
             end)
           s.hbuckets
       with Exit -> ());
      upper_bound s !found
    end

  let max_value s =
    let top = ref 0 in
    Array.iteri (fun i n -> if n > 0 then top := i) s.hbuckets;
    upper_bound s !top

  (* JSON rendering: summary statistics plus the sparse bucket array keyed
     by bucket index, so the exact distribution round-trips. *)
  let json s =
    let buf = Buffer.create 128 in
    Buffer.add_string buf "{\"count\":";
    Buffer.add_string buf (string_of_int (count s));
    Buffer.add_string buf ",\"sum\":";
    Buffer.add_string buf (Json.float_str (sum s));
    Buffer.add_string buf ",\"p50\":";
    Buffer.add_string buf (Json.float_str (quantile s 0.5));
    Buffer.add_string buf ",\"p90\":";
    Buffer.add_string buf (Json.float_str (quantile s 0.9));
    Buffer.add_string buf ",\"p99\":";
    Buffer.add_string buf (Json.float_str (quantile s 0.99));
    Buffer.add_string buf ",\"max\":";
    Buffer.add_string buf (Json.float_str (max_value s));
    Buffer.add_string buf ",\"scale\":";
    Buffer.add_string buf (Json.float_str s.hscale);
    Buffer.add_string buf ",\"buckets\":{";
    let first = ref true in
    Array.iteri
      (fun i n ->
        if n > 0 then begin
          if not !first then Buffer.add_char buf ',';
          first := false;
          Buffer.add_string buf (Printf.sprintf "\"%d\":%d" i n)
        end)
      s.hbuckets;
    Buffer.add_string buf "}}";
    Buffer.contents buf

end

let snapshot () =
  locked (fun () ->
      Hashtbl.fold
        (fun name m acc ->
          match m with
          | Mcounter c -> (name, Int (Counter.value c)) :: acc
          | Mhist _ -> acc (* see hist_snapshot *))
        metrics [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let hist_snapshot () =
  locked (fun () ->
      Hashtbl.fold
        (fun name m acc ->
          match m with
          | Mhist h -> Hist.read_cells name h :: acc
          | Mcounter _ -> acc)
        metrics [])
  |> List.sort (fun a b -> compare a.Hist.hname b.Hist.hname)

let reset_metrics () =
  locked (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | Mcounter c -> Array.iter (fun cell -> Atomic.set cell 0) c
          | Mhist h ->
            Array.iter
              (fun row -> Array.iter (fun cell -> Atomic.set cell 0) row)
              h.hist_grid)
        metrics)

let pp_snapshot fmt () =
  List.iter
    (fun (name, v) ->
      match v with
      | Int i -> Format.fprintf fmt "%s = %d@." name i
      | Float f -> Format.fprintf fmt "%s = %g@." name f
      | String s -> Format.fprintf fmt "%s = %s@." name s
      | Bool b -> Format.fprintf fmt "%s = %b@." name b)
    (snapshot ());
  List.iter
    (fun s ->
      Format.fprintf fmt "%s = count %d p50 %g p99 %g max %g@." s.Hist.hname
        (Hist.count s) (Hist.quantile s 0.5) (Hist.quantile s 0.99)
        (Hist.max_value s))
    (hist_snapshot ())

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* Nesting depth is per domain: spans opened on a worker domain do not
   perturb the main domain's depth. *)
let depth_key = Domain.DLS.new_key (fun () -> ref 0)

let depth () = Domain.DLS.get depth_key

let with_span ?(fields = []) name f =
  if not (enabled ()) then f ()
  else begin
    let depth = depth () in
    let d = !depth in
    let dom = (Domain.self () :> int) in
    emit
      ~fields:(("depth", Int d) :: ("domain", Int dom) :: fields)
      ("span.begin:" ^ name);
    let t0 = Unix.gettimeofday () in
    incr depth;
    Fun.protect
      ~finally:(fun () ->
        decr depth;
        let dur = Unix.gettimeofday () -. t0 in
        emit
          ~fields:
            (("depth", Int d)
             :: ("domain", Int dom)
             :: ("dur_s", Float dur)
             :: fields)
          ("span.end:" ^ name))
      f
  end

(* ------------------------------------------------------------------ *)
(* Span profiles                                                       *)
(* ------------------------------------------------------------------ *)

module Profile = struct
  (* A calling-context tree: one node per (path of span names), with
     per-domain open-span stacks so interleaved worker-domain traces
     attribute time to the right parent.  Fed one event at a time by the
     trace reader (fltrace). *)

  type node = {
    nname : string;
    mutable calls : int;
    mutable total_s : float;
    nchildren : (string, node) Hashtbl.t;
  }

  type t = {
    proot : node;
    pstacks : (int, node list ref) Hashtbl.t; (* domain -> innermost-first *)
    mutable punmatched : int;
  }

  let make_node nname =
    { nname; calls = 0; total_s = 0.0; nchildren = Hashtbl.create 4 }

  let create () =
    {
      proot = make_node "<root>";
      pstacks = Hashtbl.create 4;
      punmatched = 0;
    }

  let begin_prefix = "span.begin:"
  let end_prefix = "span.end:"

  let strip prefix s =
    let lp = String.length prefix in
    if String.length s >= lp && String.sub s 0 lp = prefix then
      Some (String.sub s lp (String.length s - lp))
    else None

  let stack p dom =
    match Hashtbl.find_opt p.pstacks dom with
    | Some st -> st
    | None ->
      let st = ref [] in
      Hashtbl.add p.pstacks dom st;
      st

  let field_int e k =
    match List.assoc_opt k e.fields with Some (Int i) -> Some i | _ -> None

  let field_float e k =
    match List.assoc_opt k e.fields with
    | Some (Float f) -> Some f
    | Some (Int i) -> Some (float_of_int i)
    | _ -> None

  let child parent name =
    match Hashtbl.find_opt parent.nchildren name with
    | Some n -> n
    | None ->
      let n = make_node name in
      Hashtbl.add parent.nchildren name n;
      n

  let add_event p e =
    match strip begin_prefix e.name with
    | Some name ->
      let dom = Option.value ~default:0 (field_int e "domain") in
      let st = stack p dom in
      let parent = match !st with [] -> p.proot | n :: _ -> n in
      st := child parent name :: !st
    | None ->
      (match strip end_prefix e.name with
       | None -> ()
       | Some name ->
         let dom = Option.value ~default:0 (field_int e "domain") in
         let dur = Option.value ~default:0.0 (field_float e "dur_s") in
         let st = stack p dom in
         let rec pop = function
           | n :: rest when n.nname = name ->
             n.calls <- n.calls + 1;
             n.total_s <- n.total_s +. dur;
             st := rest
           | _ :: rest ->
             (* an enclosing begin lost its end (truncated trace);
                resync at the matching frame if one exists *)
             p.punmatched <- p.punmatched + 1;
             pop rest
           | [] -> p.punmatched <- p.punmatched + 1
         in
         if List.exists (fun n -> n.nname = name) !st then pop !st
         else p.punmatched <- p.punmatched + 1)

  type tree = {
    tname : string;
    calls : int;
    total_s : float;
    self_s : float;
    children : tree list;
  }

  let rec freeze node =
    let children =
      Hashtbl.fold (fun _ n acc -> freeze n :: acc) node.nchildren []
      |> List.sort (fun a b -> compare b.total_s a.total_s)
    in
    let child_total =
      List.fold_left (fun acc c -> acc +. c.total_s) 0.0 children
    in
    {
      tname = node.nname;
      calls = node.calls;
      total_s = node.total_s;
      self_s = Float.max 0.0 (node.total_s -. child_total);
      children;
    }

  let roots p =
    Hashtbl.fold (fun _ n acc -> freeze n :: acc) p.proot.nchildren []
    |> List.sort (fun a b -> compare b.total_s a.total_s)

  let unmatched p = p.punmatched

  (* Folded stacks ("a;b;c self-seconds"), one line per tree node: the
     format flamegraph.pl consumes, and by construction the self values
     under a root sum to that root's total. *)
  let flame p =
    let lines = ref [] in
    let rec go prefix t =
      let path = if prefix = "" then t.tname else prefix ^ ";" ^ t.tname in
      if t.self_s > 0.0 then lines := (path, t.self_s) :: !lines;
      List.iter (go path) t.children
    in
    List.iter (go "") (roots p);
    List.rev !lines
end

(* ------------------------------------------------------------------ *)
(* Stock sinks                                                         *)
(* ------------------------------------------------------------------ *)

let jsonl_sink oc e =
  output_string oc (Json.to_string e);
  output_char oc '\n'

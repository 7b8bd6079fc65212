type lit = int

type t = {
  mutable vars : int;
  mutable clause_count : int;
  mutable store : lit array array;
  mutable literal_count : int;
}

let create () = { vars = 0; clause_count = 0; store = Array.make 64 [||]; literal_count = 0 }

let fresh_var f =
  f.vars <- f.vars + 1;
  f.vars

let fresh_vars f n = Array.init n (fun _ -> fresh_var f)

let reserve f n = if n > f.vars then f.vars <- n

let check_lit f l =
  if l = 0 then invalid_arg "Formula.add_clause: zero literal";
  let v = abs l in
  if v > f.vars then
    invalid_arg (Printf.sprintf "Formula.add_clause: variable %d not allocated" v)

let push f clause =
  let cap = Array.length f.store in
  if f.clause_count >= cap then begin
    let store' = Array.make (cap * 2) [||] in
    Array.blit f.store 0 store' 0 cap;
    f.store <- store'
  end;
  f.store.(f.clause_count) <- clause;
  f.clause_count <- f.clause_count + 1;
  f.literal_count <- f.literal_count + Array.length clause

let add_clause_a f clause =
  if Array.length clause = 0 then invalid_arg "Formula.add_clause: empty clause";
  Array.iter (check_lit f) clause;
  push f clause

let add_clause f lits = add_clause_a f (Array.of_list lits)

let num_vars f = f.vars
let num_clauses f = f.clause_count
let num_literals f = f.literal_count

let clauses f = Array.sub f.store 0 f.clause_count

let iter_clauses f k =
  for i = 0 to f.clause_count - 1 do
    k f.store.(i)
  done

let ratio f = if f.vars = 0 then 0.0 else float_of_int f.clause_count /. float_of_int f.vars

let copy f =
  {
    vars = f.vars;
    clause_count = f.clause_count;
    store = Array.map Array.copy (Array.sub f.store 0 f.clause_count);
    literal_count = f.literal_count;
  }

let to_dimacs f =
  let buf = Buffer.create (f.literal_count * 4) in
  Buffer.add_string buf (Printf.sprintf "p cnf %d %d\n" f.vars f.clause_count);
  iter_clauses f (fun clause ->
      Array.iter (fun l -> Buffer.add_string buf (string_of_int l); Buffer.add_char buf ' ') clause;
      Buffer.add_string buf "0\n");
  Buffer.contents buf

exception Dimacs_error of string

let tokens line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun tok -> tok <> "")

(* The header's variable count bounds every literal, so a hostile literal
   can neither blow up the variable tables nor overflow [abs] (the range
   test below never negates [min_int]).  The clause count is advisory. *)
let of_dimacs text =
  let f = create () in
  let declared = ref None in
  let current = ref [] in
  let header line =
    if !declared <> None then
      raise (Dimacs_error "more than one \"p cnf\" header");
    match tokens line with
    | [ "p"; "cnf"; v; c ] ->
      (match int_of_string_opt v, int_of_string_opt c with
       | Some v, Some c when v >= 0 && c >= 0 -> declared := Some v
       | _ -> raise (Dimacs_error (Printf.sprintf "malformed header %S" line)))
    | _ -> raise (Dimacs_error (Printf.sprintf "malformed header %S" line))
  in
  let handle_token token =
    let v =
      match !declared with
      | Some v -> v
      | None -> raise (Dimacs_error "clause before the \"p cnf V C\" header")
    in
    match int_of_string_opt token with
    | None -> raise (Dimacs_error (Printf.sprintf "bad literal %S" token))
    | Some 0 ->
      (match !current with
       | [] -> raise (Dimacs_error "empty clause in input")
       | lits ->
         List.iter (fun l -> reserve f (abs l)) lits;
         add_clause f (List.rev lits);
         current := [])
    | Some l when l < -v || l > v ->
      raise
        (Dimacs_error
           (Printf.sprintf "literal %d outside the %d declared variables" l v))
    | Some l -> current := l :: !current
  in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = 'c' || line.[0] = '%' then ()
         else if line.[0] = 'p' then header line
         else List.iter handle_token (tokens line));
  if !current <> [] then raise (Dimacs_error "trailing clause without terminating 0");
  f

let pp_stats fmt f =
  Format.fprintf fmt "%d vars, %d clauses, %d literals, ratio %.2f" f.vars
    f.clause_count f.literal_count (ratio f)

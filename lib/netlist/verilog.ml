exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun s -> raise (Parse_error (line, s))) fmt

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

let is_valid_ident name =
  String.length name > 0
  && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '$' -> true | _ -> false)
       name

(* Map every wire to a legal, unique Verilog identifier. *)
let identifier_table c used =
  let table = Array.make (Circuit.num_nodes c) "" in
  for id = 0 to Circuit.num_nodes c - 1 do
    let raw = (Circuit.node c id).Circuit.name in
    let base =
      if is_valid_ident raw then raw
      else begin
        let cleaned =
          String.map
            (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') as ch -> ch | _ -> '_')
            raw
        in
        "n_" ^ cleaned
      end
    in
    let rec unique candidate i =
      if Hashtbl.mem used candidate then unique (Printf.sprintf "%s_%d" base i) (i + 1)
      else candidate
    in
    let name = unique base 1 in
    Hashtbl.add used name ();
    table.(id) <- name
  done;
  table

let primitive_name = function
  | Gate.And -> Some "and"
  | Gate.Nand -> Some "nand"
  | Gate.Or -> Some "or"
  | Gate.Nor -> Some "nor"
  | Gate.Xor -> Some "xor"
  | Gate.Xnor -> Some "xnor"
  | Gate.Buf -> Some "buf"
  | Gate.Not -> Some "not"
  | Gate.Input | Gate.Key_input | Gate.Const _ | Gate.Mux | Gate.Lut _ -> None

let to_string ?module_name c =
  let module_name =
    match module_name with
    | Some m -> m
    | None ->
      if is_valid_ident c.Circuit.name then c.Circuit.name else "top"
  in
  let used = Hashtbl.create 64 in
  let names = identifier_table c used in
  (* Key inputs must carry the keyinput* naming convention or they would
     come back as plain inputs; rename them position-wise. *)
  Array.iteri
    (fun i id ->
      let rec unique candidate j =
        if Hashtbl.mem used candidate then
          unique (Printf.sprintf "keyinput%d_%d" i j) (j + 1)
        else candidate
      in
      let name = unique (Printf.sprintf "keyinput%d" i) 1 in
      Hashtbl.add used name ();
      names.(id) <- name)
    c.Circuit.keys;
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let input_names =
    Array.to_list (Array.map (fun id -> names.(id)) c.Circuit.inputs)
    @ Array.to_list (Array.map (fun id -> names.(id)) c.Circuit.keys)
  in
  (* An output port reuses its driver's name when they coincide; otherwise it
     gets its own (fresh) identifier and a connecting assign. *)
  let out_ports =
    Array.to_list
      (Array.map
         (fun (port, id) ->
           if String.equal port names.(id) then port, id
           else begin
             let base = if is_valid_ident port then port else names.(id) ^ "_out" in
             let rec unique candidate i =
               if Hashtbl.mem used candidate then
                 unique (Printf.sprintf "%s_%d" base i) (i + 1)
               else candidate
             in
             let port_name = unique base 1 in
             Hashtbl.add used port_name ();
             port_name, id
           end)
         c.Circuit.outputs)
  in
  add "// generated by fulllock (Full-Lock DAC'19 reproduction)\n";
  add "module %s (%s);\n" module_name
    (String.concat ", " (input_names @ List.map fst out_ports));
  List.iter (fun name -> add "  input %s;\n" name) input_names;
  List.iter (fun (name, _) -> add "  output %s;\n" name) out_ports;
  for id = 0 to Circuit.num_nodes c - 1 do
    match (Circuit.node c id).Circuit.kind with
    | Gate.Input | Gate.Key_input -> ()
    | _ -> add "  wire %s;\n" names.(id)
  done;
  for id = 0 to Circuit.num_nodes c - 1 do
    let nd = Circuit.node c id in
    let args = Array.map (fun f -> names.(f)) nd.Circuit.fanins in
    match nd.Circuit.kind with
    | Gate.Input | Gate.Key_input -> ()
    | Gate.Const b -> add "  assign %s = 1'b%d;\n" names.(id) (if b then 1 else 0)
    | Gate.Mux ->
      (* fanins [s; a; b]: select=1 chooses b *)
      add "  assign %s = %s ? %s : %s;\n" names.(id) args.(0) args.(2) args.(1)
    | Gate.Lut tt ->
      let minterms = ref [] in
      Array.iteri
        (fun row v ->
          if v then begin
            let product =
              Array.to_list
                (Array.mapi
                   (fun j a -> if row land (1 lsl j) <> 0 then a else "~" ^ a)
                   args)
            in
            minterms := ("(" ^ String.concat " & " product ^ ")") :: !minterms
          end)
        tt;
      (match !minterms with
       | [] -> add "  assign %s = 1'b0;\n" names.(id)
       | ms -> add "  assign %s = %s;\n" names.(id) (String.concat " | " (List.rev ms)))
    | kind ->
      (match primitive_name kind with
       | Some prim ->
         add "  %s g%d (%s, %s);\n" prim id names.(id)
           (String.concat ", " (Array.to_list args))
       | None -> assert false)
  done;
  List.iter
    (fun (port_name, id) ->
      if not (String.equal port_name names.(id)) then
        add "  assign %s = %s;\n" port_name names.(id))
    out_ports;
  add "endmodule\n";
  Buffer.contents buf

let write_file ?module_name c path =
  let oc = open_out path in
  output_string oc (to_string ?module_name c);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

type token =
  | Tok_ident of string
  | Tok_literal of bool
  | Tok_punct of char  (* ( ) , ; = ? : ~ & | ^ *)
  | Tok_eof

let tokenize text =
  let tokens = ref [] in
  let line = ref 1 in
  let n = String.length text in
  let i = ref 0 in
  let push t = tokens := (t, !line) :: !tokens in
  while !i < n do
    let ch = text.[!i] in
    (match ch with
     | '\n' ->
       incr line;
       incr i
     | ' ' | '\t' | '\r' -> incr i
     | '/' when !i + 1 < n && text.[!i + 1] = '/' ->
       while !i < n && text.[!i] <> '\n' do incr i done
     | '(' | ')' | ',' | ';' | '=' | '?' | ':' | '~' | '&' | '|' | '^' ->
       push (Tok_punct ch);
       incr i
     | '1' when !i + 3 < n && String.sub text !i 3 = "1'b" ->
       (match text.[!i + 3] with
        | '0' -> push (Tok_literal false)
        | '1' -> push (Tok_literal true)
        | c -> fail !line "bad literal 1'b%c" c);
       i := !i + 4
     | 'a' .. 'z' | 'A' .. 'Z' | '_' | '\\' ->
       let start = !i in
       if ch = '\\' then begin
         (* escaped identifier: up to whitespace *)
         incr i;
         while !i < n && text.[!i] <> ' ' && text.[!i] <> '\n' && text.[!i] <> '\t' do
           incr i
         done;
         push (Tok_ident (String.sub text (start + 1) (!i - start - 1)))
       end
       else begin
         while
           !i < n
           && (match text.[!i] with
               | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '$' -> true
               | _ -> false)
         do
           incr i
         done;
         push (Tok_ident (String.sub text start (!i - start)))
       end
     | '0' .. '9' -> fail !line "unexpected number (only 1'b0 / 1'b1 supported)"
     | c -> fail !line "unexpected character %C" c)
  done;
  List.rev ((Tok_eof, !line) :: !tokens)

(* Parsed statements. *)
type expr =
  | E_ref of string
  | E_const of bool
  | E_not of expr
  | E_and of expr list
  | E_or of expr list
  | E_xor of expr list
  | E_mux of expr * expr * expr  (* cond, if-true, if-false *)

type statement =
  | S_input of string list
  | S_output of string list
  | S_wire of string list
  | S_gate of string * string * string list  (* kind, out, ins *)
  | S_assign of string * expr

type parser_state = { mutable toks : (token * int) list }

let peek p = match p.toks with [] -> Tok_eof, 0 | t :: _ -> t
let advance p = match p.toks with [] -> () | _ :: rest -> p.toks <- rest

let expect_punct p ch =
  match peek p with
  | Tok_punct c, _ when c = ch -> advance p
  | _, line -> fail line "expected %C" ch

let expect_ident p =
  match peek p with
  | Tok_ident s, _ ->
    advance p;
    s
  | _, line -> fail line "expected identifier"

let rec parse_expr p =
  let cond = parse_or p in
  match peek p with
  | Tok_punct '?', _ ->
    advance p;
    let if_true = parse_expr p in
    expect_punct p ':';
    let if_false = parse_expr p in
    E_mux (cond, if_true, if_false)
  | _ -> cond

and parse_binary p sub punct build =
  let first = sub p in
  let rec more acc =
    match peek p with
    | Tok_punct c, _ when c = punct ->
      advance p;
      more (sub p :: acc)
    | _ -> (match acc with [ single ] -> single | many -> build (List.rev many))
  in
  more [ first ]

and parse_or p = parse_binary p parse_xor '|' (fun es -> E_or es)
and parse_xor p = parse_binary p parse_and '^' (fun es -> E_xor es)
and parse_and p = parse_binary p parse_unary '&' (fun es -> E_and es)

and parse_unary p =
  match peek p with
  | Tok_punct '~', _ ->
    advance p;
    E_not (parse_unary p)
  | _ -> parse_primary p

and parse_primary p =
  match peek p with
  | Tok_punct '(', _ ->
    advance p;
    let e = parse_expr p in
    expect_punct p ')';
    e
  | Tok_literal b, _ ->
    advance p;
    E_const b
  | Tok_ident s, _ ->
    advance p;
    E_ref s
  | _, line -> fail line "expected expression"

let parse_name_list p =
  let rec go acc =
    let name = expect_ident p in
    match peek p with
    | Tok_punct ',', _ ->
      advance p;
      go (name :: acc)
    | _ ->
      expect_punct p ';';
      List.rev (name :: acc)
  in
  go []

let primitive_of_string = function
  | "and" -> Some Gate.And
  | "nand" -> Some Gate.Nand
  | "or" -> Some Gate.Or
  | "nor" -> Some Gate.Nor
  | "xor" -> Some Gate.Xor
  | "xnor" -> Some Gate.Xnor
  | "buf" -> Some Gate.Buf
  | "not" -> Some Gate.Not
  | _ -> None

let parse_statements p =
  (* Module header. *)
  (match peek p with
   | Tok_ident "module", _ -> advance p
   | _, line -> fail line "expected 'module'");
  let module_name = expect_ident p in
  (match peek p with
   | Tok_punct '(', _ ->
     (* skip the port list; directions come from input/output statements *)
     advance p;
     let rec skip () =
       match peek p with
       | Tok_punct ')', _ -> advance p
       | Tok_eof, line -> fail line "unterminated port list"
       | _ ->
         advance p;
         skip ()
     in
     skip ();
     expect_punct p ';'
   | _ -> expect_punct p ';');
  let statements = ref [] in
  let rec loop () =
    match peek p with
    | Tok_ident "endmodule", _ -> advance p
    | Tok_eof, line -> fail line "missing endmodule"
    | Tok_ident "input", _ ->
      advance p;
      statements := S_input (parse_name_list p) :: !statements;
      loop ()
    | Tok_ident "output", _ ->
      advance p;
      statements := S_output (parse_name_list p) :: !statements;
      loop ()
    | Tok_ident "wire", _ ->
      advance p;
      statements := S_wire (parse_name_list p) :: !statements;
      loop ()
    | Tok_ident "assign", _ ->
      advance p;
      let lhs = expect_ident p in
      expect_punct p '=';
      let e = parse_expr p in
      expect_punct p ';';
      statements := S_assign (lhs, e) :: !statements;
      loop ()
    | Tok_ident prim, line when primitive_of_string prim <> None ->
      advance p;
      let _instance = expect_ident p in
      expect_punct p '(';
      let rec args acc =
        let a = expect_ident p in
        match peek p with
        | Tok_punct ',', _ ->
          advance p;
          args (a :: acc)
        | Tok_punct ')', _ ->
          advance p;
          List.rev (a :: acc)
        | _, l -> fail l "expected ',' or ')'"
      in
      let operands = args [] in
      expect_punct p ';';
      (match operands with
       | out :: ins when ins <> [] ->
         let kind = Option.get (primitive_of_string prim) in
         Option.iter (fail line "%s")
           (Gate.fanin_count_error kind (List.length ins));
         statements := S_gate (prim, out, ins) :: !statements
       | _ -> fail line "gate needs an output and at least one input");
      loop ()
    | Tok_ident other, line -> fail line "unsupported construct %S" other
    | _, line -> fail line "unsupported token"
  in
  loop ();
  module_name, List.rev !statements

let is_key_name name =
  let prefix = "keyinput" in
  String.length name >= String.length prefix
  && String.lowercase_ascii (String.sub name 0 (String.length prefix)) = prefix

let parse_string ?name text =
  let p = { toks = tokenize text } in
  let module_name, statements = parse_statements p in
  (match peek p with
   | Tok_eof, _ -> ()
   | _, line -> fail line "trailing input after endmodule");
  let circuit_name = Option.value ~default:module_name name in
  let b = Circuit.Builder.create ~name:circuit_name () in
  let ids = Hashtbl.create 64 in
  let outputs = ref [] in
  (* Phase 1: create inputs/keys, declare every driven wire. *)
  List.iter
    (function
      | S_input names ->
        List.iter
          (fun w ->
            let id =
              if is_key_name w then Circuit.Builder.key_input ~name:w b
              else Circuit.Builder.input ~name:w b
            in
            Hashtbl.replace ids w id)
          names
      | S_output names -> outputs := !outputs @ names
      | S_wire _ -> ()
      | S_gate (prim, out, _) ->
        let kind = Option.get (primitive_of_string prim) in
        Hashtbl.replace ids out (Circuit.Builder.declare ~name:out b kind)
      | S_assign (lhs, _) ->
        Hashtbl.replace ids lhs (Circuit.Builder.declare ~name:lhs b Gate.Buf))
    statements;
  let lookup line w =
    match Hashtbl.find_opt ids w with
    | Some id -> id
    | None -> fail line "wire %S is never driven" w
  in
  (* Phase 2: wire gates and build assign expression trees. *)
  let rec build_expr = function
    | E_ref w -> lookup 0 w
    | E_const v -> Circuit.Builder.add b (Gate.Const v) [||]
    | E_not e -> Circuit.Builder.add b Gate.Not [| build_expr e |]
    | E_and es -> Circuit.Builder.add b Gate.And (Array.of_list (List.map build_expr es))
    | E_or es -> Circuit.Builder.add b Gate.Or (Array.of_list (List.map build_expr es))
    | E_xor es -> Circuit.Builder.add b Gate.Xor (Array.of_list (List.map build_expr es))
    | E_mux (cond, if_true, if_false) ->
      (* our Mux fanins are [s; taken-when-0; taken-when-1] *)
      let s = build_expr cond in
      let t = build_expr if_true in
      let f = build_expr if_false in
      Circuit.Builder.add b Gate.Mux [| s; f; t |]
  in
  List.iter
    (function
      | S_input _ | S_output _ | S_wire _ -> ()
      | S_gate (_, out, ins) ->
        Circuit.Builder.set_fanins b (lookup 0 out)
          (Array.of_list (List.map (lookup 0) ins))
      | S_assign (lhs, e) -> Circuit.Builder.set_fanins b (lookup 0 lhs) [| build_expr e |])
    statements;
  List.iter (fun port -> Circuit.Builder.output b port (lookup 0 port)) !outputs;
  Circuit.of_builder b

let parse_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  parse_string ~name:(Filename.remove_extension (Filename.basename path)) text

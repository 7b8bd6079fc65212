exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun s -> raise (Parse_error (line, s))) fmt

type line_decl =
  | L_input of string
  | L_key_input of string
  | L_output of string
  | L_gate of string * Gate.t * string list

let is_key_name name =
  let prefix = "keyinput" in
  String.length name >= String.length prefix
  && String.lowercase_ascii (String.sub name 0 (String.length prefix)) = prefix

let strip_comment s =
  match String.index_opt s '#' with
  | Some i -> String.sub s 0 i
  | None -> s

let parse_call lineno s =
  (* "GATE(a, b, c)" or "LUT 0x8 (a, b)" -> kind, operand names *)
  match String.index_opt s '(' with
  | None -> fail lineno "expected '(' in gate application %S" s
  | Some lp ->
    if s.[String.length s - 1] <> ')' then fail lineno "missing ')' in %S" s;
    let head = String.trim (String.sub s 0 lp) in
    let args_str = String.sub s (lp + 1) (String.length s - lp - 2) in
    let args =
      String.split_on_char ',' args_str
      |> List.map String.trim
      |> List.filter (fun a -> a <> "")
    in
    let kind =
      match String.split_on_char ' ' head |> List.filter (fun w -> w <> "") with
      | [ word ] ->
        (match Gate.of_string word with
         | Some k -> k
         | None -> fail lineno "unknown gate kind %S" word)
      | [ lut; hex ] when String.lowercase_ascii lut = "lut" ->
        let table_bits =
          match int_of_string_opt hex with
          | Some v -> v
          | None -> fail lineno "bad LUT table constant %S" hex
        in
        let arity = List.length args in
        if arity < 1 || arity > 16 then fail lineno "LUT arity %d unsupported" arity;
        let tt = Array.init (1 lsl arity) (fun i -> table_bits land (1 lsl i) <> 0) in
        Gate.Lut tt
      | _ -> fail lineno "cannot parse gate head %S" head
    in
    Option.iter (fail lineno "%s")
      (Gate.fanin_count_error kind (List.length args));
    kind, args

let parse_line lineno raw =
  let s = String.trim (strip_comment raw) in
  if s = "" then None
  else
    let upper_prefix prefix =
      String.length s > String.length prefix
      && String.uppercase_ascii (String.sub s 0 (String.length prefix)) = prefix
    in
    let inside () =
      match String.index_opt s '(' with
      | Some lp when s.[String.length s - 1] = ')' ->
        String.trim (String.sub s (lp + 1) (String.length s - lp - 2))
      | Some _ | None -> fail lineno "malformed declaration %S" s
    in
    if upper_prefix "INPUT" then begin
      let name = inside () in
      if is_key_name name then Some (L_key_input name) else Some (L_input name)
    end
    else if upper_prefix "KEYINPUT" then Some (L_key_input (inside ()))
    else if upper_prefix "OUTPUT" then Some (L_output (inside ()))
    else
      match String.index_opt s '=' with
      | None -> fail lineno "cannot parse line %S" s
      | Some eq ->
        let lhs = String.trim (String.sub s 0 eq) in
        let rhs = String.trim (String.sub s (eq + 1) (String.length s - eq - 1)) in
        if lhs = "" then fail lineno "empty target name";
        let kind, args = parse_call lineno rhs in
        Some (L_gate (lhs, kind, args))

let parse_string ?(name = "bench") text =
  let decls =
    String.split_on_char '\n' text
    |> List.mapi (fun i raw -> i + 1, raw)
    |> List.filter_map (fun (i, raw) -> parse_line i raw)
  in
  let b = Circuit.Builder.create ~name () in
  let ids = Hashtbl.create 64 in
  (* Pass 1: declare every named node so forward references and cycles
     resolve. *)
  let declare wire kind =
    if Hashtbl.mem ids wire then
      fail 0 "wire %S defined more than once" wire
    else Hashtbl.add ids wire (Circuit.Builder.declare ~name:wire b kind)
  in
  List.iter
    (fun decl ->
      match decl with
      | L_input wire -> declare wire Gate.Input
      | L_key_input wire -> declare wire Gate.Key_input
      | L_output _ -> ()
      | L_gate (wire, kind, _) -> declare wire kind)
    decls;
  let lookup wire =
    match Hashtbl.find_opt ids wire with
    | Some id -> id
    | None -> fail 0 "wire %S is used but never defined" wire
  in
  (* Pass 2: wire fanins and outputs in file order. *)
  List.iter
    (fun decl ->
      match decl with
      | L_input _ | L_key_input _ -> ()
      | L_output wire -> Circuit.Builder.output b wire (lookup wire)
      | L_gate (wire, _, args) ->
        Circuit.Builder.set_fanins b (lookup wire)
          (Array.of_list (List.map lookup args)))
    decls;
  Circuit.of_builder b

let parse_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  parse_string ~name:(Filename.remove_extension (Filename.basename path)) text

let gate_call node =
  let buf = Buffer.create 32 in
  (match node.Circuit.kind with
   | Gate.Lut tt ->
     let v = ref 0 in
     for i = Array.length tt - 1 downto 0 do
       v := (!v lsl 1) lor (if tt.(i) then 1 else 0)
     done;
     Buffer.add_string buf (Printf.sprintf "LUT 0x%x " !v)
   | Gate.Const b ->
     (* Constants are printed as 0-ary gate calls CONST0()/CONST1(). *)
     Buffer.add_string buf (if b then "CONST1" else "CONST0")
   | kind -> Buffer.add_string buf (String.uppercase_ascii (Gate.to_string kind)));
  buf

let to_string c =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "# %s\n" c.Circuit.name);
  Buffer.add_string buf
    (Printf.sprintf "# %d inputs, %d keys, %d outputs, %d gates\n"
       (Circuit.num_inputs c) (Circuit.num_keys c) (Circuit.num_outputs c)
       (Circuit.num_gates c));
  Array.iter
    (fun id ->
      Buffer.add_string buf
        (Printf.sprintf "INPUT(%s)\n" (Circuit.node c id).Circuit.name))
    c.Circuit.inputs;
  Array.iter
    (fun id ->
      Buffer.add_string buf
        (Printf.sprintf "KEYINPUT(%s)\n" (Circuit.node c id).Circuit.name))
    c.Circuit.keys;
  Array.iter
    (fun (port, _) -> Buffer.add_string buf (Printf.sprintf "OUTPUT(%s)\n" port))
    c.Circuit.outputs;
  for id = 0 to Circuit.num_nodes c - 1 do
    let nd = Circuit.node c id in
    match nd.Circuit.kind with
    | Gate.Input | Gate.Key_input -> ()
    | _ ->
      let call = gate_call nd in
      let args =
        Array.to_list nd.Circuit.fanins
        |> List.map (fun f -> (Circuit.node c f).Circuit.name)
        |> String.concat ", "
      in
      Buffer.add_string buf
        (Printf.sprintf "%s = %s(%s)\n" nd.Circuit.name
           (Buffer.contents call |> String.trim)
           args)
  done;
  (* Output ports whose name differs from the driving wire need a BUF alias on
     re-parse; we emit them as comments for information. *)
  Array.iter
    (fun (port, id) ->
      let wire = (Circuit.node c id).Circuit.name in
      if not (String.equal port wire) then
        Buffer.add_string buf (Printf.sprintf "%s = BUF(%s)\n" port wire))
    c.Circuit.outputs;
  Buffer.contents buf

let write_file c path =
  let oc = open_out path in
  output_string oc (to_string c);
  close_out oc

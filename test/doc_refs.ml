(* Every backticked `Module.name` in the docs is declared in lib/'s .mli.

   test/dune runs this with the docs (README.md, DESIGN.md,
   EXPERIMENTS.md and docs/*.md) and every .mli under lib/ as arguments;
   ROADMAP.md and CHANGES.md are history and stay out of the scan. A
   name counts as declared when its module's .mli has it as a val, type,
   constructor, record field or submodule; modules without an .mli under
   lib/ are not checked. Prints each unresolved reference and a count,
   and exits 1 if any is unresolved. *)

let read path = In_channel.with_open_bin path In_channel.input_all

(* Every match of [re] in [s], left to right, without overlap. *)
let all_matches ?(group = 0) re s =
  let rec from i acc =
    match Str.search_forward re s i with
    | exception Not_found -> List.rev acc
    | _ -> from (Str.match_end ()) (Str.matched_group group s :: acc)
  in
  from 0 []

(* [src] without its comments (nested); string literals outside comments
   are kept whole, so a "(*" inside one opens nothing. *)
let strip_comments src =
  let n = String.length src in
  let out = Buffer.create n in
  let at i s = i + String.length s <= n && String.sub src i (String.length s) = s in
  let rec go i depth =
    if i >= n then ()
    else if at i "(*" then go (i + 2) (depth + 1)
    else if depth > 0 && at i "*)" then go (i + 2) (depth - 1)
    else if depth = 0 && src.[i] = '"' then begin
      let rec close j =
        if j < n && src.[j] <> '"' then close (j + if src.[j] = '\\' then 2 else 1) else j
      in
      let j = close (i + 1) in
      Buffer.add_string out (String.sub src i (min (j + 1) n - i));
      go (j + 1) depth
    end
    else begin
      if depth = 0 then Buffer.add_char out src.[i];
      go (i + 1) depth
    end
  in
  go 0 0;
  Buffer.contents out

let space = "[ \t\n\r\011\012]"
let word = "[A-Za-z0-9_]"

let declaration_patterns name =
  let n = Str.quote name in
  List.map Str.regexp
    [ "\\b\\(val\\|external\\)" ^ space ^ "+" ^ n ^ "\\b";
      "\\b\\(type\\|and\\)" ^ space ^ "+\\(nonrec" ^ space ^ "+\\)?\\('" ^ word ^ "+" ^ space
      ^ "+\\|([^)]*)" ^ space ^ "+\\)?" ^ n ^ "\\b";
      "\\bmodule" ^ space ^ "+\\(type" ^ space ^ "+\\)?" ^ n ^ "\\b";
      "\\bexception" ^ space ^ "+" ^ n ^ "\\b";
      (* constructor *)
      "[|=]" ^ space ^ "*" ^ n ^ "\\b";
      (* record field *)
      "\\(^\\|[{;]\\)" ^ space ^ "*\\(mutable" ^ space ^ "+\\)?" ^ n ^ space ^ "+:" ]

(* [text] without its ``` fenced blocks. *)
let strip_fences text =
  let fence = Str.regexp_string "```" in
  let buf = Buffer.create (String.length text) in
  let rec go i =
    match Str.search_forward fence text i with
    | exception Not_found -> Buffer.add_substring buf text i (String.length text - i)
    | start -> (
      match Str.search_forward fence text (start + 3) with
      | exception Not_found -> Buffer.add_substring buf text i (String.length text - i)
      | stop ->
        Buffer.add_substring buf text i (start - i);
        go (stop + 3))
  in
  go 0;
  Buffer.contents buf

let span_re = Str.regexp "`\\([^`]+\\)`"
let path_re = Str.regexp ("\\b\\([A-Z]" ^ word ^ "*\\.\\)+[A-Za-z_]" ^ word ^ "*'*")

let () =
  let files = List.tl (Array.to_list Sys.argv) in
  let mlis =
    List.filter_map
      (fun p ->
        if Filename.check_suffix p ".mli" then
          Some (String.capitalize_ascii (Filename.chop_suffix (Filename.basename p) ".mli"), p)
        else None)
      files
  in
  let docs = List.filter (fun p -> Filename.check_suffix p ".md") files in
  let declares m name =
    let src = strip_comments (read (List.assoc m mlis)) in
    List.exists
      (fun re -> match Str.search_forward re src 0 with _ -> true | exception Not_found -> false)
      (declaration_patterns name)
  in
  let checked = ref 0 and bad = ref [] in
  List.iter
    (fun doc ->
      List.iter
        (fun span ->
          List.iter
            (fun path ->
              let parts = String.split_on_char '.' path in
              let name = List.nth parts (List.length parts - 1)
              and m = List.nth parts (List.length parts - 2) in
              if List.mem_assoc m mlis then begin
                incr checked;
                if not (declares m name) then
                  bad :=
                    Printf.sprintf "%s: `%s` names %s.%s, which %s does not declare" doc span
                      m name (List.assoc m mlis)
                    :: !bad
              end)
            (all_matches path_re span))
        (all_matches ~group:1 span_re (strip_fences (read doc))))
    docs;
  List.iter print_endline (List.rev !bad);
  Printf.printf "%d doc references checked, %d unresolved\n" !checked (List.length !bad);
  exit (if !bad = [] then 0 else 1)

type align = Left | Right

let render ?(aligns = [||]) rows =
  match rows with
  | [] -> ""
  | _ ->
    let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 rows in
    let cell row j = match List.nth_opt row j with Some c -> c | None -> "" in
    let widths = Array.make ncols 0 in
    let measure row =
      List.iteri (fun j c -> if String.length c > widths.(j) then widths.(j) <- String.length c) row
    in
    List.iter measure rows;
    let align j = if j < Array.length aligns then aligns.(j) else Left in
    let pad j c =
      let w = widths.(j) in
      let fill = String.make (w - String.length c) ' ' in
      match align j with Left -> c ^ fill | Right -> fill ^ c
    in
    let buf = Buffer.create 256 in
    let emit_row row =
      for j = 0 to ncols - 1 do
        if j > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (pad j (cell row j))
      done;
      (* Trim trailing spaces so output is diff-friendly. *)
      let line = Buffer.contents buf in
      Buffer.clear buf;
      let len = ref (String.length line) in
      while !len > 0 && line.[!len - 1] = ' ' do decr len done;
      String.sub line 0 !len
    in
    let lines = List.map emit_row rows in
    let rule =
      String.concat "  " (Array.to_list (Array.map (fun w -> String.make w '-') widths))
    in
    let body =
      match lines with
      | [] -> []
      | header :: rest -> header :: rule :: rest
    in
    String.concat "\n" body ^ "\n"

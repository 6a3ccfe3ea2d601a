(* In-memory spans recorded around calls into the repository's layers:
   name, start, end and the enclosing span.  Nothing is written until the
   run ends ([write]), so the recorder costs one list cons per span. *)

type span = { id : int; name : string; parent : int; start : float; stop : float }

type t = {
  mutable spans : span list;  (* newest first *)
  mutable open_ : int list;   (* enclosing spans, innermost first *)
  mutable next : int;
}

let create () = { spans = []; open_ = []; next = 0 }

(* [span tracer name f] runs [f], recording it as a span when a tracer is
   attached; with [None] it is a plain call. *)
let span tracer name f =
  match tracer with
  | None -> f ()
  | Some t ->
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.open_ with p :: _ -> p | [] -> -1 in
    t.open_ <- id :: t.open_;
    let start = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        t.open_ <- List.tl t.open_;
        t.spans <- { id; name; parent; start; stop = Unix.gettimeofday () } :: t.spans)

let count t = List.length t.spans

(* One JSON object per line, in start order. *)
let write t path =
  let module J = Sf_obs.Json in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      List.iter
        (fun s ->
          output_string oc
            (J.to_string
               (J.Obj
                  [
                    ("id", J.Int s.id);
                    ("name", J.String s.name);
                    ("parent", if s.parent < 0 then J.Null else J.Int s.parent);
                    ("start", J.Float s.start);
                    ("end", J.Float s.stop);
                  ]));
          output_char oc '\n')
        (List.sort (fun a b -> compare a.id b.id) t.spans))

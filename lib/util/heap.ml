type 'a entry = { priority : float; seq : int; value : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { data = [||]; size = 0; next_seq = 0 }
let length t = t.size
let is_empty t = t.size = 0

let before a b =
  a.priority < b.priority
  || (Float.equal a.priority b.priority && a.seq < b.seq)

let grow t entry =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let ncap = max 16 (2 * cap) in
    let ndata = Array.make ncap entry in
    Array.blit t.data 0 ndata 0 t.size;
    t.data <- ndata
  end

let push t ~priority value =
  let entry = { priority; seq = t.next_seq; value } in
  t.next_seq <- t.next_seq + 1;
  grow t entry;
  t.data.(t.size) <- entry;
  t.size <- t.size + 1;
  (* Sift up. *)
  let i = ref (t.size - 1) in
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before t.data.(!i) t.data.(parent) then begin
      let tmp = t.data.(parent) in
      t.data.(parent) <- t.data.(!i);
      t.data.(!i) <- tmp;
      i := parent
    end
    else continue_ := false
  done

let peek t =
  if t.size = 0 then None
  else
    let e = t.data.(0) in
    Some (e.priority, e.value)

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      (* Sift down. *)
      let i = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < t.size && before t.data.(l) t.data.(!smallest) then smallest := l;
        if r < t.size && before t.data.(r) t.data.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          let tmp = t.data.(!smallest) in
          t.data.(!smallest) <- t.data.(!i);
          t.data.(!i) <- tmp;
          i := !smallest
        end
        else continue_ := false
      done
    end;
    Some (top.priority, top.value)
  end

let clear t =
  t.size <- 0;
  t.next_seq <- 0

type point = { x : int; y : int }

type size = { width : int; height : int }

type rect = { rx : int; ry : int; rwidth : int; rheight : int }

let rect ~x ~y ~width ~height = { rx = x; ry = y; rwidth = width; rheight = height }

let rect_of p s = { rx = p.x; ry = p.y; rwidth = s.width; rheight = s.height }

let contains r p =
  p.x >= r.rx && p.x < r.rx + r.rwidth && p.y >= r.ry && p.y < r.ry + r.rheight

let is_empty r = r.rwidth <= 0 || r.rheight <= 0

(* Int-typed min/max: [Stdlib.min]/[max] are polymorphic functions, and
   without flambda every call goes through polymorphic compare. *)
let imin (a : int) b = if a <= b then a else b

let imax (a : int) b = if a >= b then a else b

let intersect a b =
  let x0 = imax a.rx b.rx and y0 = imax a.ry b.ry in
  let x1 = imin (a.rx + a.rwidth) (b.rx + b.rwidth) in
  let y1 = imin (a.ry + a.rheight) (b.ry + b.rheight) in
  if x1 <= x0 || y1 <= y0 then None
  else Some { rx = x0; ry = y0; rwidth = x1 - x0; rheight = y1 - y0 }

(* [intersect a b <> None] without building the result. *)
let intersects a b =
  a.rwidth > 0 && a.rheight > 0 && b.rwidth > 0 && b.rheight > 0
  && a.rx < b.rx + b.rwidth
  && b.rx < a.rx + a.rwidth
  && a.ry < b.ry + b.rheight
  && b.ry < a.ry + a.rheight

let translate r ~dx ~dy = { r with rx = r.rx + dx; ry = r.ry + dy }

let union a b =
  if is_empty a then b
  else if is_empty b then a
  else begin
    let x0 = imin a.rx b.rx and y0 = imin a.ry b.ry in
    let x1 = imax (a.rx + a.rwidth) (b.rx + b.rwidth) in
    let y1 = imax (a.ry + a.rheight) (b.ry + b.rheight) in
    { rx = x0; ry = y0; rwidth = x1 - x0; rheight = y1 - y0 }
  end

let area r = if is_empty r then 0 else r.rwidth * r.rheight

let inflate r ~dx ~dy =
  { rx = r.rx - dx; ry = r.ry - dy; rwidth = r.rwidth + (2 * dx); rheight = r.rheight + (2 * dy) }

let pp_rect fmt r =
  Format.fprintf fmt "%dx%d+%d+%d" r.rwidth r.rheight r.rx r.ry

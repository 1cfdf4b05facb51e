let rec f k =
  if k < 1 then invalid_arg "Bounds.f: need k >= 1";
  if k = 1 then 1 else 2 + (2 * (k - 1) * f (k - 1))

let rec g k =
  if k < 1 then invalid_arg "Bounds.g: need k >= 1";
  if k = 1 then 0 else 2 + g (k - 1) + (2 * k * f (k - 1))

let h k = g k + f k - 1

let width_for_lanes m =
  let rec go w = if w >= 17 || f w >= m then w else go (w + 1) in
  go 1

let infinity = max_int / 4

let is_finite d = d < infinity

let add a b = if a >= infinity || b >= infinity then infinity else a + b

let lex_lt (d1, id1) (d2, id2) = d1 < d2 || (d1 = d2 && id1 < id2)

let none = (infinity, max_int)

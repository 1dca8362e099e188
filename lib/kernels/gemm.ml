open Shorthand

let tiled_spec ~m ~n ~k ~b =
  if b < 1 then invalid_arg "Gemm.tiled_spec: b < 1";
  if m mod b <> 0 || n mod b <> 0 || k mod b <> 0 then
    invalid_arg "Gemm.tiled_spec: b must divide m, n and k";
  (* Global indices are affine in the tile counters because b is a
     constant: i = b*i0 + ii, etc. *)
  let gi = Affine.add (Affine.term b "i0") (v "ii") in
  let gj = Affine.add (Affine.term b "j0") (v "jj") in
  let gk = Affine.add (Affine.term b "k0") (v "kk") in
  Program.make
    ~name:(Printf.sprintf "gemm_tiled_m%d_n%d_k%d_b%d" m n k b)
    ~params:[] ~assumptions:[]
    [
      loop_lt "i" (c 0) (c m)
        [
          loop_lt "j" (c 0) (c n)
            [ stmt "C0" ~writes:[ a2 "C" (v "i") (v "j") ] ~reads:[] ];
        ];
      loop_lt "i0" (c 0)
        (c (m / b))
        [
          loop_lt "j0" (c 0)
            (c (n / b))
            [
              loop_lt "k0" (c 0)
                (c (k / b))
                [
                  loop_lt "ii" (c 0) (c b)
                    [
                      loop_lt "jj" (c 0) (c b)
                        [
                          loop_lt "kk" (c 0) (c b)
                            [
                              stmt "SC"
                                ~writes:[ a2 "C" gi gj ]
                                ~reads:
                                  [ a2 "C" gi gj; a2 "A" gi gk; a2 "B" gk gj ];
                            ];
                        ];
                    ];
                ];
            ];
        ];
    ]

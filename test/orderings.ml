(* Tiled orderings that only the tests trace, built like the shipped
   ones in [Iolb_kernels]: concrete (parameter-free) programs over the
   registry program's statements, which the term check in
   test_kernel_errors ties to that program cell by cell. *)

open Iolb_kernels.Shorthand

(* The classic cubic-blocked ordering of [C = A * B]
   (examples/kernels/gemm.iolb); [b] must divide [m], [n] and [k].  With
   [3 b^2 <= S] its I/O is [~ 2 m n k / b + m n], the classical lower
   bound's [Theta(m n k / sqrt S)] shape. *)
let gemm_tiled_spec ~m ~n ~k ~b =
  if b < 1 then invalid_arg "gemm_tiled_spec: b < 1";
  if m mod b <> 0 || n mod b <> 0 || k mod b <> 0 then
    invalid_arg "gemm_tiled_spec: b must divide m, n and k";
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

(* The right-looking tiled MGS the paper's Appendix A.1 remarks on: the
   same asymptotic I/O as [Iolb_kernels.Mgs.tiled_spec], but the trailing
   matrix is read and written once per block, so the constant is
   higher and dominated by writes.  [b] must divide [n]. *)
let mgs_tiled_right_spec ~m ~n ~b =
  if b < 1 then invalid_arg "mgs_tiled_right_spec: b < 1";
  if n mod b <> 0 then invalid_arg "mgs_tiled_right_spec: b must divide n";
  let nb = n / b in
  let j0 = Affine.term b "t" in
  Program.make
    ~name:(Printf.sprintf "mgs_tiled_right_m%d_n%d_b%d" m n b)
    ~params:[] ~assumptions:[]
    [
      loop_lt "t" (c 0) (c nb)
        [
          (* Factor the block (identical inner factorisation). *)
          loop "j" j0
            (j0 +! c (b - 1))
            [
              loop "i2" j0
                (v "j" -! c 1)
                [
                  stmt "Ui0" ~writes:[ a2 "R" (v "i2") (v "j") ] ~reads:[];
                  loop_lt "k" (c 0) (c m)
                    [
                      stmt "UiR"
                        ~writes:[ a2 "R" (v "i2") (v "j") ]
                        ~reads:
                          [
                            a2 "R" (v "i2") (v "j");
                            a2 "A" (v "k") (v "i2");
                            a2 "A" (v "k") (v "j");
                          ];
                    ];
                  loop_lt "k" (c 0) (c m)
                    [
                      stmt "UiU"
                        ~writes:[ a2 "A" (v "k") (v "j") ]
                        ~reads:
                          [
                            a2 "A" (v "k") (v "j");
                            a2 "A" (v "k") (v "i2");
                            a2 "R" (v "i2") (v "j");
                          ];
                    ];
                ];
              stmt "Un0" ~writes:[ a2 "R" (v "j") (v "j") ] ~reads:[];
              loop_lt "k" (c 0) (c m)
                [
                  stmt "UnR"
                    ~writes:[ a2 "R" (v "j") (v "j") ]
                    ~reads:[ a2 "R" (v "j") (v "j"); a2 "A" (v "k") (v "j") ];
                ];
              stmt "Usq"
                ~writes:[ a2 "R" (v "j") (v "j") ]
                ~reads:[ a2 "R" (v "j") (v "j") ];
              loop_lt "k" (c 0) (c m)
                [
                  stmt "Udv"
                    ~writes:[ a2 "A" (v "k") (v "j") ]
                    ~reads:[ a2 "A" (v "k") (v "j"); a2 "R" (v "j") (v "j") ];
                ];
            ];
          (* Right-looking: project the whole trailing matrix against the
             block - reading and rewriting it once per block. *)
          loop "i" j0
            (j0 +! c (b - 1))
            [
              loop_lt "j2" (j0 +! c b) (c n)
                [
                  stmt "Ut0" ~writes:[ a2 "R" (v "i") (v "j2") ] ~reads:[];
                  loop_lt "k" (c 0) (c m)
                    [
                      stmt "UtR"
                        ~writes:[ a2 "R" (v "i") (v "j2") ]
                        ~reads:
                          [
                            a2 "R" (v "i") (v "j2");
                            a2 "A" (v "k") (v "i");
                            a2 "A" (v "k") (v "j2");
                          ];
                    ];
                  loop_lt "k" (c 0) (c m)
                    [
                      stmt "UtU"
                        ~writes:[ a2 "A" (v "k") (v "j2") ]
                        ~reads:
                          [
                            a2 "A" (v "k") (v "j2");
                            a2 "A" (v "k") (v "i");
                            a2 "R" (v "i") (v "j2");
                          ];
                    ];
                ];
            ];
        ];
    ]

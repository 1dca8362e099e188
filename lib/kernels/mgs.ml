open Shorthand

(* Left-looking tiled ordering, Figure 8 of the paper.  The current block of
   B columns stays resident; each previous column is streamed in once per
   block.  With (M+1)B < S the I/O is ~ M^2 N^2 / (2S). *)
let tiled_spec ~m ~n ~b =
  if b < 1 then invalid_arg "Mgs.tiled_spec: b < 1";
  if n mod b <> 0 then invalid_arg "Mgs.tiled_spec: b must divide n";
  let nb = n / b in
  (* j0 = t * b; all bounds are concrete-affine because b is a constant. *)
  let j0 = Affine.term b "t" in
  Program.make ~name:(Printf.sprintf "mgs_tiled_m%d_n%d_b%d" m n b) ~params:[]
    ~assumptions:[]
    [
      loop_lt "t" (c 0) (c nb)
        [
          (* Left update: stream every previous column through the block. *)
          loop_lt "i" (c 0) j0
            [
              loop "j" j0
                (j0 +! c (b - 1))
                [
                  stmt "Tr0" ~writes:[ a2 "R" (v "i") (v "j") ] ~reads:[];
                  loop_lt "k" (c 0) (c m)
                    [
                      stmt "TrR"
                        ~writes:[ a2 "R" (v "i") (v "j") ]
                        ~reads:
                          [
                            a2 "R" (v "i") (v "j");
                            a2 "A" (v "k") (v "i");
                            a2 "A" (v "k") (v "j");
                          ];
                    ];
                  loop_lt "k" (c 0) (c m)
                    [
                      stmt "TrU"
                        ~writes:[ a2 "A" (v "k") (v "j") ]
                        ~reads:
                          [
                            a2 "A" (v "k") (v "j");
                            a2 "A" (v "k") (v "i");
                            a2 "R" (v "i") (v "j");
                          ];
                    ];
                ];
            ];
          (* Factor the block: unblocked MGS among its own columns. *)
          loop "j" j0
            (j0 +! c (b - 1))
            [
              loop "i2" j0
                (v "j" -! c 1)
                [
                  stmt "Ti0" ~writes:[ a2 "R" (v "i2") (v "j") ] ~reads:[];
                  loop_lt "k" (c 0) (c m)
                    [
                      stmt "TiR"
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
                      stmt "TiU"
                        ~writes:[ a2 "A" (v "k") (v "j") ]
                        ~reads:
                          [
                            a2 "A" (v "k") (v "j");
                            a2 "A" (v "k") (v "i2");
                            a2 "R" (v "i2") (v "j");
                          ];
                    ];
                ];
              stmt "Tn0" ~writes:[ a2 "R" (v "j") (v "j") ] ~reads:[];
              loop_lt "k" (c 0) (c m)
                [
                  stmt "TnR"
                    ~writes:[ a2 "R" (v "j") (v "j") ]
                    ~reads:
                      [ a2 "R" (v "j") (v "j"); a2 "A" (v "k") (v "j") ];
                ];
              stmt "Tsq"
                ~writes:[ a2 "R" (v "j") (v "j") ]
                ~reads:[ a2 "R" (v "j") (v "j") ];
              loop_lt "k" (c 0) (c m)
                [
                  stmt "Tdv"
                    ~writes:[ a2 "A" (v "k") (v "j") ]
                    ~reads:[ a2 "A" (v "k") (v "j"); a2 "R" (v "j") (v "j") ];
                ];
            ];
        ];
    ]

let tiled_right_spec ~m ~n ~b =
  if b < 1 then invalid_arg "Mgs.tiled_right_spec: b < 1";
  if n mod b <> 0 then invalid_arg "Mgs.tiled_right_spec: b must divide n";
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

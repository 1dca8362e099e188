open Shorthand

let tiled_spec ~m ~n ~b =
  if b < 1 then invalid_arg "Householder.tiled_spec: b < 1";
  if n mod b <> 0 then invalid_arg "Householder.tiled_spec: b must divide n";
  let nb = n / b in
  let k0 = Affine.term b "t" in
  let reflect prefix jvar kvar =
    (* Apply reflector jvar to column kvar: the Figure 9 inner body. *)
    let j = v jvar and k = v kvar in
    [
      stmt (prefix ^ "t0") ~writes:[ sc "tmp" ] ~reads:[ a2 "A" j k ];
      loop "i" (j +! c 1)
        (c (m - 1))
        [
          stmt (prefix ^ "tR") ~writes:[ sc "tmp" ]
            ~reads:[ sc "tmp"; a2 "A" (v "i") j; a2 "A" (v "i") k ];
        ];
      stmt (prefix ^ "tm") ~writes:[ sc "tmp" ] ~reads:[ a1 "tau" j; sc "tmp" ];
      stmt (prefix ^ "a0") ~writes:[ a2 "A" j k ] ~reads:[ a2 "A" j k; sc "tmp" ];
      loop "i" (j +! c 1)
        (c (m - 1))
        [
          stmt (prefix ^ "tU")
            ~writes:[ a2 "A" (v "i") k ]
            ~reads:[ a2 "A" (v "i") k; a2 "A" (v "i") j; sc "tmp" ];
        ];
    ]
  in
  Program.make
    ~name:(Printf.sprintf "a2v_tiled_m%d_n%d_b%d" m n b)
    ~params:[] ~assumptions:[]
    [
      loop_lt "t" (c 0) (c nb)
        [
          loop_lt "j" (c 0) k0
            [ loop "k" k0 (k0 +! c (b - 1)) (reflect "P" "j" "k") ];
          loop "k" k0
            (k0 +! c (b - 1))
            (List.concat
               [
                 [ loop "j2" k0 (v "k" -! c 1) (reflect "Q" "j2" "k") ];
                 [
                   stmt "Gn0" ~writes:[ sc "norma2" ] ~reads:[];
                   loop "i"
                     (v "k" +! c 1)
                     (c (m - 1))
                     [
                       stmt "Gn2" ~writes:[ sc "norma2" ]
                         ~reads:[ sc "norma2"; a2 "A" (v "i") (v "k") ];
                     ];
                   stmt "Gnrm" ~writes:[ sc "norma" ]
                     ~reads:[ a2 "A" (v "k") (v "k"); sc "norma2" ];
                   stmt "Gakk1"
                     ~writes:[ a2 "A" (v "k") (v "k") ]
                     ~reads:[ a2 "A" (v "k") (v "k"); sc "norma" ];
                   stmt "Gtau"
                     ~writes:[ a1 "tau" (v "k") ]
                     ~reads:[ sc "norma2"; a2 "A" (v "k") (v "k") ];
                   loop "i"
                     (v "k" +! c 1)
                     (c (m - 1))
                     [
                       stmt "Gdiv"
                         ~writes:[ a2 "A" (v "i") (v "k") ]
                         ~reads:[ a2 "A" (v "i") (v "k"); a2 "A" (v "k") (v "k") ];
                     ];
                   stmt "Gakk2"
                     ~writes:[ a2 "A" (v "k") (v "k") ]
                     ~reads:[ a2 "A" (v "k") (v "k"); sc "norma" ];
                 ];
               ]);
        ];
    ]

open Shorthand

(* Right-looking MGS, Figure 1 of the paper.  The statement names SR / SU
   follow the paper; the hourglass lives between them (reduction over i in
   SR, broadcast over i in SU, temporal dimension k, neutral dimension j). *)
let spec =
  let m = v "M" and n = v "N" in
  Program.make ~name:"mgs" ~params:[ "M"; "N" ]
    ~assumptions:
      [
        Constr.ge_of (v "M") (v "N");
        Constr.ge_of (v "N") (c 2);
      ]
    [
      loop_lt "k" (c 0) n
        [
          stmt "Snrm0" ~writes:[ sc "nrm" ] ~reads:[];
          loop_lt "i" (c 0) m
            [
              stmt "Snrm"
                ~writes:[ sc "nrm" ]
                ~reads:[ sc "nrm"; a2 "A" (v "i") (v "k") ];
            ];
          stmt "Srkk" ~writes:[ a2 "R" (v "k") (v "k") ] ~reads:[ sc "nrm" ];
          loop_lt "i" (c 0) m
            [
              stmt "Sq"
                ~writes:[ a2 "Q" (v "i") (v "k") ]
                ~reads:[ a2 "A" (v "i") (v "k"); a2 "R" (v "k") (v "k") ];
            ];
          loop_lt "j" (v "k" +! c 1) n
            [
              stmt "Sr0" ~writes:[ a2 "R" (v "k") (v "j") ] ~reads:[];
              loop_lt "i" (c 0) m
                [
                  stmt "SR"
                    ~writes:[ a2 "R" (v "k") (v "j") ]
                    ~reads:
                      [
                        a2 "R" (v "k") (v "j");
                        a2 "Q" (v "i") (v "k");
                        a2 "A" (v "i") (v "j");
                      ];
                ];
              loop_lt "i" (c 0) m
                [
                  stmt "SU"
                    ~writes:[ a2 "A" (v "i") (v "j") ]
                    ~reads:
                      [
                        a2 "A" (v "i") (v "j");
                        a2 "Q" (v "i") (v "k");
                        a2 "R" (v "k") (v "j");
                      ];
                ];
            ];
        ];
    ]

let factor a =
  let m, n = Matrix.dims a in
  if m < n then invalid_arg "Mgs.factor: need m >= n";
  let q = Matrix.copy a in
  let r = Matrix.create n n in
  for k = 0 to n - 1 do
    let nrm = ref 0. in
    for i = 0 to m - 1 do
      nrm := !nrm +. (Matrix.get q i k *. Matrix.get q i k)
    done;
    let rkk = sqrt !nrm in
    Matrix.set r k k rkk;
    for i = 0 to m - 1 do
      Matrix.set q i k (Matrix.get q i k /. rkk)
    done;
    for j = k + 1 to n - 1 do
      let rkj = ref 0. in
      for i = 0 to m - 1 do
        rkj := !rkj +. (Matrix.get q i k *. Matrix.get q i j)
      done;
      Matrix.set r k j !rkj;
      for i = 0 to m - 1 do
        Matrix.set q i j (Matrix.get q i j -. (Matrix.get q i k *. !rkj))
      done
    done
  done;
  (q, r)

(* Left-looking tiled ordering, Figure 8 of the paper.  The current block of
   B columns stays resident; each previous column is streamed in once per
   block.  With (M+1)B < S the I/O is ~ M^2 N^2 / (2S). *)
let factor_tiled ~b a =
  if b < 1 then invalid_arg "Mgs.factor_tiled: b < 1";
  let m, n = Matrix.dims a in
  if m < n then invalid_arg "Mgs.factor_tiled: need m >= n";
  let q = Matrix.copy a in
  let r = Matrix.create n n in
  let j0 = ref 0 in
  while !j0 < n do
    let jhi = min (!j0 + b - 1) (n - 1) in
    (* Project the block against all columns to its left. *)
    for i = 0 to !j0 - 1 do
      for j = !j0 to jhi do
        let rij = ref 0. in
        for k = 0 to m - 1 do
          rij := !rij +. (Matrix.get q k i *. Matrix.get q k j)
        done;
        Matrix.set r i j !rij;
        for k = 0 to m - 1 do
          Matrix.set q k j (Matrix.get q k j -. (Matrix.get q k i *. !rij))
        done
      done
    done;
    (* Factor the block itself (unblocked MGS within the block). *)
    for j = !j0 to jhi do
      for i = !j0 to j - 1 do
        let rij = ref 0. in
        for k = 0 to m - 1 do
          rij := !rij +. (Matrix.get q k i *. Matrix.get q k j)
        done;
        Matrix.set r i j !rij;
        for k = 0 to m - 1 do
          Matrix.set q k j (Matrix.get q k j -. (Matrix.get q k i *. !rij))
        done
      done;
      let nrm = ref 0. in
      for k = 0 to m - 1 do
        nrm := !nrm +. (Matrix.get q k j *. Matrix.get q k j)
      done;
      let rjj = sqrt !nrm in
      Matrix.set r j j rjj;
      for k = 0 to m - 1 do
        Matrix.set q k j (Matrix.get q k j /. rjj)
      done
    done;
    j0 := !j0 + b
  done;
  (q, r)

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

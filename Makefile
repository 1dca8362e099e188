.PHONY: all build test test-quick check bench examples coverage net-lines clean

all: build

build:
	dune build @all

test:
	dune runtest

# Only the `Quick-tagged Alcotest cases (skips the deep fuzz sweeps).
test-quick:
	ALCOTEST_QUICK_TESTS=1 dune runtest --force

# The soundness certifier at the PR-smoke scale (exit 1 on counterexample).
check:
	dune exec bin/iolb_cli.exe -- check --count 200 --seed 42

bench:
	dune exec bench/main.exe

examples:
	dune exec examples/quickstart.exe
	dune exec examples/bound_gallery.exe
	dune exec examples/mgs_tiling.exe
	dune exec examples/qr_io_study.exe
	dune exec examples/hourglass_explorer.exe

# Needs bisect_ppx installed (`opam install bisect_ppx`); the build is not
# instrumented otherwise.
coverage:
	mkdir -p _coverage
	BISECT_FILE=$(CURDIR)/_coverage/bisect \
	  dune runtest --force --instrument-with bisect_ppx
	bisect-ppx-report summary --per-file --coverage-path _coverage

# Net production lines (lib/ and bin/) added and removed since BASE:
# `make net-lines BASE=main`.
BASE ?= HEAD
net-lines:
	@git diff --numstat $(BASE) -- lib bin | awk \
	  '{ a += $$1; d += $$2 } \
	   END { printf "lib/+bin/: +%d -%d net %+d\n", a, d, a - d }'

clean:
	dune clean
	rm -rf _coverage

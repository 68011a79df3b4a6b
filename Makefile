# Convenience targets; everything is plain dune underneath.

.PHONY: all build test check bench examples clean doc

all: build

build:
	dune build @all

test:
	dune runtest

# Everything CI runs: build, the full test suite, a differential fuzz
# smoke (100 seeds through oracle + SQL + Datalog + native 2PL, with the
# serializability battery on every schedule), and the swarm determinism
# gate (the same 200 seeded scenarios twice, byte-identical reports).
check:
	dune build @all
	dune runtest
	dune exec bin/dsched.exe -- check --fuzz 100
	dune exec bin/dsched.exe -- swarm -n 200 --seed 1 --out swarm-smoke.json
	dune exec bin/dsched.exe -- swarm -n 200 --seed 1 --out swarm-smoke-2.json
	cmp swarm-smoke.json swarm-smoke-2.json

# Quick-scale run of every paper table/figure + ablations.
bench:
	dune exec bench/main.exe

# Paper-scale Figure 2 (240 s windows, 3 runs per point).
bench-paper:
	dune exec bench/main.exe -- figure2 --window 240 --runs 3

examples:
	dune exec examples/quickstart.exe
	dune exec examples/webshop.exe
	dune exec examples/sla_tiers.exe
	dune exec examples/relaxed_consistency.exe
	dune exec examples/recovery.exe

clean:
	dune clean

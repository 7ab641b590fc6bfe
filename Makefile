# Convenience entry points; the project itself is a plain dune build.

.PHONY: all build quick test check clean bench crashcheck-quick crashcheck-deep faultcheck proccheck verifycheck shardcheck ringcheck snapcheck qoscheck dircheck kvcheck sharecheck fmt

all: build

build:
	dune build

# Fast suites only (alcotest -q skips the `Slow-tagged shape/property
# tests); use `make test` for the full tier-1 run.
quick:
	dune build && dune runtest -- -q

test:
	dune runtest

# The pre-commit gate: everything compiles, is formatted, and every test
# passes (dune runtest includes test_crash, the bounded crash-state
# exploration and cross-FS differential fuzz, and test_mutation, which
# runs every deliberate bug against the campaign that must catch it),
# and the deep crash tier explores longer scripts, since every crash
# state goes through the controller's and the LibFS's recovery.
# CI runs exactly this target.  Its `bench --fast` gates check their
# thresholds but leave the tracked BENCH_*.json records untouched.
check: fmt crashcheck-quick crashcheck-deep faultcheck proccheck verifycheck shardcheck ringcheck snapcheck qoscheck dircheck kvcheck sharecheck

# Verification-plane gate: full vs incremental verification must give
# byte-identical verdicts over the attack suite, the corruption
# campaign and a pinned-seed crash exploration — and the sabotaged
# dirty-tracking mutation must make them diverge (exit 0 BECAUSE the
# divergence was caught).
verifycheck:
	dune build
	dune exec test/test_verifier.exe
	dune exec bin/trioctl.exe -- verifycheck
	dune exec bin/trioctl.exe -- verifycheck --mutate

# Per-socket shard gate: the per-node allocation contract, the balanced
# accounting invariant across the failure-plane explorers, cross-directory
# rename under writer death, and Figure 9's Fileserver runs — the one
# gated run in which many threads of one process free and allocate
# pages at once.
shardcheck:
	dune build
	dune exec test/test_shard.exe
	dune exec bench/main.exe -- --fast fig9

fmt:
	dune build @fmt

# Ring-plane gate: the ring protocol suite (wrap-around, backpressure,
# completion correspondence, batch-drain equivalence, every-Delay-point
# kill sweep, conformance over the batched plane), a pinned-seed
# process-death exploration with ring-mounted victims, and the
# ring-batching bench (the batched plane must beat synchronous map/unmap
# by >= 1.5x on create/close/unlink with unmap-after-write;
# sync_kernel_read_bytes: the sync side's controller device reads stay
# at or below 32 KiB per op at every point, so a verified handoff keeps
# reading each metadata page once; and libfs_read_bytes: each side's
# LibFS device reads stay at or below 4 KiB per op at every point, so a
# LibFS keeps the directory state it handed back).
ringcheck:
	dune build
	dune exec test/test_ring.exe
	dune exec bin/trioctl.exe -- procfail --seed 1 --scripts 2 --ops 6 --ring 4
	dune exec bench/main.exe -- --fast ringbatch

# Process-failure plane gate: the seeded kill/hang/watchdog/GC unit and
# property tests, a pinned-seed kill-point campaign over process-death
# states from the command line, and the same campaign under the skip-GC
# mutation (exit 0 BECAUSE it failed on the accounting invariant).
proccheck:
	dune build
	dune exec test/test_procfail.exe
	dune exec bin/trioctl.exe -- procfail --seed 1 --scripts 2 --ops 6
	dune exec bin/trioctl.exe -- procfail --seed 5 --scripts 1 --ops 5 --kill-points 3 --hang-points 1 --mutate

# Media-fault plane gate: pinned-seed fault/scrub regressions, the
# crash x fault composed exploration, and an end-to-end workload with
# nonzero injection that must finish with zero uncaught exceptions.
faultcheck:
	dune build
	dune exec test/test_nvm.exe -- test faults
	dune exec test/test_core.exe -- test scrub
	dune exec test/test_crash.exe -- test faults
	dune exec bin/trioctl.exe -- faults --seed 42 --transient-p 0.01 --stuck-p 0.02
	dune exec bin/trioctl.exe -- scrub --seed 7 --lines 12 --rounds 2

# Bounded deterministic crash-state exploration from the command line:
# a fixed seed, small scripts, exhaustive subset enumeration.
crashcheck-quick:
	dune build && dune runtest
	dune exec bin/trioctl.exe -- crashcheck --seed 1 --scripts 2 --ops 6

# Full exploration: more seeds, longer scripts, wider sampling, and the
# deep tier of test_crash (CRASHCHECK_DEEP=1).
crashcheck-deep:
	dune build
	CRASHCHECK_DEEP=1 dune exec test/test_crash.exe
	dune exec bin/trioctl.exe -- crashcheck --seed 1 --scripts 8 --ops 12 --samples 10
	dune exec bin/trioctl.exe -- crashcheck --diff --scripts 4 --ops 10

# Snapshot-plane gate: the snapshot unit/regression suite (root slots,
# pinning accounting, ECC-gated rollback, recovery ladder), the
# crash-during-commit kill-point campaign (every sampled kill point must
# leave a certifiable root), the same campaign under the torn-commit
# mutation (exit 0 BECAUSE it failed on a zero-valid-root state), the
# take/list/rollback/clone demo, and the recovery-speed differential
# gate.
snapcheck:
	dune build
	dune exec test/test_snapshot.exe
	dune exec bin/trioctl.exe -- snap
	dune exec bin/trioctl.exe -- snap --explore 2 --ops 5 --kill-points 10
	dune exec bin/trioctl.exe -- snap --mutate --ops 4 --kill-points 12
	dune exec bench/main.exe -- --fast snaprecover

# Multi-tenant QoS gate: the token-bucket/backpressure/retry-deadline
# suite (including the YCSB byzantine/SIGKILL composition and the
# kills-inside-throttle-parks campaign), the trioctl qos dump, the same
# campaign under the charge-bypass mutation (exit 0 BECAUSE it failed
# as vacuous: the victim was never throttled), and the noisy-neighbour
# isolation bench (honest p99 within 2x of the all-honest baseline).
qoscheck:
	dune build
	dune exec test/test_qos.exe
	dune exec bin/trioctl.exe -- qos --kill-points 6 --ops 6
	dune exec bin/trioctl.exe -- qos --mutate --kill-points 6 --ops 6
	dune exec bench/main.exe -- --fast qos

# Directory-index gate: the B-link tree suite (scale, collisions,
# split boundaries, dry-allocator builds, rename across indexed
# directories, the readdir ordering contract, kills inside index
# updates), the trioctl dircheck kill-point campaign, the same campaign
# under the skip-index mutation (exit 0 BECAUSE it failed on
# certification: verifier invariant I5 flagged the unmaintained tree at
# a sharing point), and the dirscale bench gate (index >= 10x the
# linear scan, sub-linear growth, readdir via range scan, no index node
# read from the device by a create the node mirror serves, and
# create_index_bytes: at most 512 index bytes stored per create).
dircheck:
	dune build
	dune exec test/test_dirindex.exe
	dune exec bin/trioctl.exe -- dircheck
	dune exec bin/trioctl.exe -- dircheck --mutate
	dune exec bench/main.exe -- --fast dirscale

# Key-value gate: the Minidb suite and Table 5's fill100K signature
# (bench tab5 exits 1 unless ArckFS writes 100 KB values at least 2x as
# fast as ext4 and ArckFS-nd trails ArckFS).  A LibFS that pays the
# kernel for every page it frees falls below the 2x.
kvcheck:
	dune build
	dune exec test/test_minidb.exe
	dune exec bench/main.exe -- --fast tab5

# Sharing gate: Table 3 (bench tab3 exits 1 unless, after each ArckFS
# and trust-group create run, both processes hand back and a third
# process lists exactly the prepopulated names and every name a create
# acknowledged and no unlink removed, with no corruption event).
sharecheck:
	dune build
	dune exec bench/main.exe -- --fast tab3

bench:
	dune exec bench/main.exe

clean:
	dune clean

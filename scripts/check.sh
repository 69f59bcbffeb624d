#!/usr/bin/env bash
# The single pre-merge gate, in escalating tiers:
#
#   1. ruff         static lint over src (incl. repro.testing), tests,
#                   benchmarks, examples, scripts; degrades when absent
#   2. fast tests   tier-1 suite minus @pytest.mark.slow
#   3. slow tests   the @slow end-to-end checks on their own
#   4. selfcheck    repro selfcheck --smoke: invariants, the float32
#                   op-coverage gradcheck sweep, and the smoke golden
#                   scenario against ./goldens
#   5. nn smoke     fused-op gradchecks, the replay-parity sweep
#                   (eager vs compiled bit-identity for every
#                   registered op, through its one forward kernel),
#                   and the tiny dtype/replay bench
#   6. chaos smoke  seeded SIGKILL-at-a-point + resume over a scripted
#                   grid: the journal/lease layer must converge to the
#                   reference results with zero re-executed done jobs
#                   (deterministic, well under a minute)
#   7. serve smoke  registry round-trip, concurrent spawned publishers,
#                   a seeded in-process request burst (bit-identity +
#                   saturation errors), then the micro-batching bench
#                   in --smoke mode (whose streaming section also
#                   gates the O(changed windows) re-encode economy)
#   8. stream smoke the streaming equivalence contract (sample-at-a-
#                   time == offline bits, push-granularity invariance)
#                   plus the measured-vs-predicted peak-memory bound
#                   for chunked long-series encoding (< 20 s)
#
# Usage: scripts/check.sh [extra pytest args...]
#
# With arguments, tiers 2-3 collapse into one pytest run forwarding the
# arguments (e.g. `scripts/check.sh tests/exec -q` for one subtree);
# lint, selfcheck and the nn smoke always run.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    ruff check src tests benchmarks examples scripts
elif python -c "import ruff" >/dev/null 2>&1; then
    echo "== ruff (module) =="
    python -m ruff check src tests benchmarks examples scripts
else
    echo "!! ruff not installed; skipping lint (pip install ruff)" >&2
fi

if [ "$#" -eq 0 ]; then
    echo "== fast tests (-m 'not slow') =="
    python -m pytest -m "not slow" -q

    # Exit code 5 means "no tests collected": an empty slow tier is
    # not a gate failure, just an empty marker set.
    echo "== slow tests (-m slow) =="
    python -m pytest -m "slow" -q || { status=$?; [ "$status" -eq 5 ] || exit "$status"; }
else
    echo "== tier-1 tests =="
    python -m pytest "$@"
fi

echo "== repro selfcheck (smoke) =="
python -m repro.cli selfcheck --smoke

# The numerics kernels back everything else, so they get an explicit
# gate even when the pytest args above selected an unrelated subtree:
# finite-difference gradchecks for the fused ops, the replay-parity
# sweep (every primitive op must register the one forward kernel that
# eager and compiled replay both call, composites replay their eager
# body, and eager-only ops are declared by name), then a tiny
# float64-vs-float32 trainer-step + eager-vs-compiled inference bench
# that must run end to end.
echo "== nn fast-numerics smoke =="
python -m pytest tests/nn/test_fused_ops.py tests/properties/test_replay_parity.py -q
python benchmarks/bench_nn.py --smoke

# Crash-safety gate: one seeded kill/resume scenario plus the shard
# double-claim race, end to end through real SIGKILLed subprocesses.
# The full kill-point sweep lives in tests/exec/test_chaos.py (tier 2);
# this tier pins the deepest scenario even when pytest args above
# selected an unrelated subtree.
echo "== chaos smoke (kill/resume) =="
python -m pytest "tests/exec/test_chaos.py::TestKillResumeConvergence::test_kill_anywhere_resume_converges[journal.committed-15]" \
                 "tests/exec/test_chaos.py::TestConcurrentShards::test_two_shards_share_a_grid_without_duplicate_execution" -q

# Serving gate: the registry publish/load round-trip, four spawned
# processes publishing one name to one disk registry at once (distinct
# versions, each loading back as its publisher wrote it), a seeded
# in-process request burst (concurrent submitters, micro-batch width,
# served-bits == offline-bits, queue-full / deadline typed errors),
# then the micro-batching bench's machinery tier.  Seeded, about 20 s.
echo "== serve smoke (registry + request burst) =="
python -m pytest tests/serve/test_registry.py::TestPublishLoad \
                 tests/serve/test_registry.py::TestConcurrentPublish \
                 tests/serve/test_serving.py -q
python benchmarks/bench_serve.py --smoke

# Streaming gate: the equivalence contract property (streamed bits ==
# offline fixed-width bits, push granularity invisible) and the
# cost-model peak-memory bound on a 100k-step chunked encode.
echo "== stream smoke (parity + memory bound) =="
python -m pytest "tests/properties/test_stream_parity.py::TestStreamOfflineParity::test_sample_at_a_time_matches_offline_compiled" \
                 "tests/properties/test_stream_parity.py::TestChunkingInvariance::test_push_granularity_is_invisible" \
                 "tests/stream/test_memory_bound.py::test_peak_memory_within_cost_model_bound" -q

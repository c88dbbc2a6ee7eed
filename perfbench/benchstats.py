"""Arithmetic of the online-epoch benchmark.

Pure functions over the raw measurements epoch_bench prints: epoch
times from clearing-call gaps, the tail rule, failure accounting, and
the per-layer decomposition of a traced repetition. run.py calls them;
test_benchstats.py pins them.
"""

# alloc::ServeMode::Primary; every other mode is a degraded serve.
PRIMARY = 0

# A tail percentile must have at least this many samples beyond it.
TAIL_MIN_BEYOND = 10

# The traced layer times must add up to the epoch time within this
# share of the measured total.
DECOMPOSITION_TOLERANCE = 0.02


def epoch_gaps_ns(starts, warmup):
    """Epoch times of one repetition, in ns.

    Epoch i lasts from its clearing call to the next one, so the gap
    covers everything the epoch does after clearing (progress, commit)
    and everything the next one does before it (arrivals, placement,
    market build). The first `warmup` epochs are neither set-up nor
    measurement and are dropped; the last call has no successor and
    ends no gap.
    """
    s = starts[warmup:]
    return [b - a for a, b in zip(s, s[1:])]


def nearest_rank(n, p):
    """1-based nearest rank of percentile p in n samples: ceil(p n / 100)."""
    return -(-p * n // 100)


def tail_percentile(n, min_beyond=TAIL_MIN_BEYOND):
    """The highest integer percentile with `min_beyond` samples beyond.

    Of n sorted samples, at least `min_beyond` lie above the returned
    percentile's nearest-rank sample. None when even the median leaves
    fewer.
    """
    for p in range(99, 49, -1):
        if n - nearest_rank(n, p) >= min_beyond:
            return p
    return None


def percentile(samples, p):
    """Nearest-rank percentile p of the samples."""
    return sorted(samples)[nearest_rank(len(samples), p) - 1]


def count_failures(modes, ok, warmup, expected_calls):
    """(attempted, failed) epochs of one repetition.

    Every measured epoch is one operation. It fails when its clearing
    was served by any rung but Primary; when the run itself returned a
    non-OK status, every epoch it was to measure fails.
    """
    measured = modes[warmup:]
    if not ok:
        attempted = max(expected_calls - warmup, len(measured))
        return attempted, attempted
    return len(measured), sum(1 for m in measured if m != PRIMARY)


def spans_by_epoch(spans, phase):
    """{name: {epoch: duration_ns}} for the spans of one phase."""
    out = {}
    for name, span_phase, epoch, t0, t1 in spans:
        if span_phase == phase:
            out.setdefault(name, {})
            out[name][epoch] = out[name].get(epoch, 0) + (t1 - t0)
    return out


def decompose(traced, spans):
    """Split the traced repetition's measured epochs into layer times.

    For measured epoch e (absolute index offset + i), the gap between
    clearing calls i and i+1 is made of
      alloc       the clearing call itself,
      eval        runEpoch of e after clearing plus runEpoch of e+1
                  before clearing (its self time: the span minus the
                  clearing call inside it),
      robustness  encode, crc and commit/snapshot of epoch e,
    and the rest, which no span covers, is unattributed.

    Returns the per-epoch lists, in ns.
    """
    offset, warmup = traced["epoch_offset"], traced["warmup"]
    t0, t1 = traced["t0"], traced["t1"]
    run_epoch = {}
    for name, phase, epoch, s0, s1 in spans:
        if phase == "main" and name == "eval.run_epoch":
            run_epoch[epoch] = (s0, s1)
    durable = spans_by_epoch(
        [s for s in spans if s[0].startswith("robustness.")], "main")
    gaps, clear, eval_self, commit, rest = [], [], [], [], []
    for i in range(warmup, len(t0) - 1):
        e = offset + i
        gap = t0[i + 1] - t0[i]
        c = t1[i] - t0[i]
        ev = (run_epoch[e][1] - t1[i]) + (t0[i + 1] - run_epoch[e + 1][0])
        d = sum(per.get(e, 0) for per in durable.values())
        gaps.append(gap)
        clear.append(c)
        eval_self.append(ev)
        commit.append(d)
        rest.append(gap - c - ev - d)
    return {"gap": gaps, "clear": clear, "eval_self": eval_self,
            "commit": commit, "rest": rest}


def dominant_layer(parts):
    """Name of the layer with the largest share of the measured time."""
    totals = {"alloc": sum(parts["clear"]),
              "eval": sum(parts["eval_self"]),
              "robustness": sum(parts["commit"])}
    return max(totals, key=totals.get)

import json
import math
import shlex
import sys
import threading
import time

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rankforge.backends import (
    PRIOR_FLOOR,
    BackendBank,
    BackendDescriptor,
    CachedBackend,
    ResponseCache,
    SubprocessBackend,
    SyntheticBackend,
    logit,
)
from rankforge.backends.cache import cache_lines
from rankforge.backends.client import request_lines
from rankforge.backends.codec import decode
from rankforge.errors import (
    BackendError,
    BackendTimeoutError,
    ConfigError,
    DataError,
)
from rankforge.synthlab import SynthConfig, SynthLevel, gen_matches, quality_blocks, to_datapoint


def tiny_config() -> SynthConfig:
    return SynthConfig(
        groups=3,
        moves_per_state=6,
        plies_per_match=12,
        temperature_base=1.5,
        temperature_decay=0.6,
        levels=(SynthLevel("lo", 0.0), SynthLevel("hi", 2.0)),
        seed=9,
    )


# ---------------------------------------------------------------------------
# logit


def test_logit_half_is_exactly_zero():
    assert logit(0.5) == 0.0


def test_logit_point_nine_matches_high_precision_value():
    expected = float(mpmath.log(mpmath.mpf("0.9") / mpmath.mpf("0.1")))
    assert math.isclose(logit(0.9), expected, rel_tol=0, abs_tol=1e-12)
    assert abs(logit(0.9) - 2.1972245773362196) < 1e-12


# 1e-12 antisymmetry is testable where 1 - wr is itself representable to
# that accuracy; closer to the clamp the rounding of (1 - wr) dominates.
@given(st.floats(min_value=1e-3, max_value=1 - 1e-3))
def test_logit_antisymmetry(wr):
    assert abs(logit(wr) + logit(1 - wr)) < 1e-12


@given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
def test_logit_antisymmetry_full_clamp_range(wr):
    assert abs(logit(wr) + logit(1 - wr)) < 1e-9


def test_logit_clamps_extremes_finite():
    assert math.isfinite(logit(0.0))
    assert math.isfinite(logit(1.0))
    assert abs(logit(0.0) + logit(1.0)) < 1e-9
    assert abs(logit(0.0)) < 14


@given(st.floats(min_value=1e-6, max_value=1 - 2e-6))
def test_logit_strictly_increasing(wr):
    assert logit(wr + 1e-6) > logit(wr)


# ---------------------------------------------------------------------------
# synthetic backend


def test_strength_is_quality_without_noise():
    cfg = tiny_config()
    backend = SyntheticBackend(cfg)
    q = next(quality_blocks(cfg, ["m1"]))
    dp = to_datapoint(gen_matches(cfg, 1, ["m1"], 1.0)[0])
    for i, (state, move) in enumerate(zip(dp.states, dp.moves)):
        assert backend.score_strength(state, move) == q[i, int(move)]


def test_repeat_queries_bit_identical():
    cfg = tiny_config()
    backend = SyntheticBackend(cfg)
    dp = to_datapoint(gen_matches(cfg, 1, ["m2"], 1.0)[0])
    state, move = dp.states[3], dp.moves[3]
    first = backend.score_strength(state, move)
    second = backend.score_strength(state, move)
    assert first == second
    p1 = backend.policy_prior_many([state], [move], "lo")
    p2 = backend.policy_prior_many([state], [move], "lo")
    assert p1 == p2


def test_unknown_level_is_config_error():
    backend = SyntheticBackend(tiny_config())
    state = to_datapoint(gen_matches(tiny_config(), 0, ["m3"], 0.0)[0]).states[0]
    with pytest.raises(ConfigError):
        backend.policy_prior_many([state], ["0"], "nope")


def test_illegal_move_is_domain_error():
    backend = SyntheticBackend(tiny_config())
    state = to_datapoint(gen_matches(tiny_config(), 0, ["m4"], 0.0)[0]).states[0]
    with pytest.raises(DataError):
        backend.score_strength(state, "99")


def test_bad_moves_raise_typed_errors_on_every_call():
    config = tiny_config()
    backend = SyntheticBackend(config)
    states = list(to_datapoint(gen_matches(config, 0, ["m5"], 0.0)[0]).states[:2])
    width = config.moves_per_state
    for _ in range(2):
        with pytest.raises(DataError, match=f"move '99' out of range for {width} moves"):
            backend.score_strength_many(states, ["0", "99"])
        with pytest.raises(DataError, match="synthetic move is not an integer"):
            backend.evaluate_state_many(states, ["0", "x"])
    assert len(backend.score_strength_many(states, ["0", "1"])) == 2


def test_prior_floor_applied():
    cfg = SynthConfig(
        groups=3, moves_per_state=6, plies_per_match=4,
        temperature_base=0.001, temperature_decay=0.5,
        levels=(SynthLevel("sharp", 5.0),), seed=4,
    )
    backend = SyntheticBackend(cfg)
    match = gen_matches(cfg, 0, ["floor"], -10.0)[0]
    q = None
    for state in to_datapoint(match).states:
        priors = backend.policy_prior_many([state] * cfg.moves_per_state,
                                           [str(m) for m in range(cfg.moves_per_state)],
                                           "sharp")
        assert (priors >= PRIOR_FLOOR).all()
        assert (priors <= 1.0).all()


def test_deterioration_semantics():
    cfg = tiny_config()
    backend = SyntheticBackend(cfg)
    match = gen_matches(cfg, 2, ["m5"], 2.0)[0]
    q = next(quality_blocks(cfg, ["m5"]))
    dp = to_datapoint(match)
    for i, (state, move) in enumerate(zip(dp.states, dp.moves)):
        before = backend.evaluate_state_many([state])[0]
        after = backend.evaluate_state_many([state], [move])[0]
        assert before == q[i].max()
        assert before + after == pytest.approx(q[i].max() - q[i, int(move)], abs=1e-12)


# ---------------------------------------------------------------------------
# subprocess protocol client


def _descriptor(launch: str, kind: str = "value") -> BackendDescriptor:
    levels = ("lv1", "lv2") if kind == "policy" else ()
    return BackendDescriptor(kind=kind, game="synthetic", launch=launch, levels=levels)


def test_inorder_and_outoforder_backends_agree(mock_backend_cmd):
    states = [f"s{i}" for i in range(9)]
    moves = [str(i % 3) for i in range(9)]
    a = SubprocessBackend(_descriptor(mock_backend_cmd("inorder")), timeout=10)
    b = SubprocessBackend(_descriptor(mock_backend_cmd("outoforder")), timeout=10)
    try:
        va = a.evaluate_state_many(states, moves)
        vb = b.evaluate_state_many(states, moves)
        assert np.array_equal(va, vb)
        pa = a.policy_prior_many(states, moves, "lv1")
        pb = b.policy_prior_many(states, moves, "lv1")
        assert np.array_equal(pa, pb)
    finally:
        a.close()
        b.close()


def test_answers_written_in_two_flushes_agree_with_inorder(mock_backend_cmd):
    states = [f"s{i}" for i in range(9)]
    moves = [str(i % 3) for i in range(9)]
    split = SubprocessBackend(_descriptor(mock_backend_cmd("split")), timeout=10)
    reference = SubprocessBackend(_descriptor(mock_backend_cmd("inorder")), timeout=10)
    try:
        assert np.array_equal(split.evaluate_state_many(states, moves),
                              reference.evaluate_state_many(states, moves))
        assert np.array_equal(split.policy_prior_many(states, moves, "lv1"),
                              reference.policy_prior_many(states, moves, "lv1"))
    finally:
        split.close()
        reference.close()


def _one_answer_engine(answer: str) -> str:
    """An engine that reads one request, writes ``answer`` as its one line,
    then waits for its input to close."""
    code = (f"import sys; sys.stdin.readline(); print({answer!r}, flush=True); "
            "sys.stdin.read()")
    return f"{sys.executable} -c {shlex.quote(code)}"


@pytest.mark.parametrize("answer", [
    "not json", '"x"', "[1]", "null", "[" * 2000,
    '{"id": [1], "value": 0.5}', '{"id": true, "value": 0.5}', '{"id": 1, "value": true}',
    '{"id": 1, "value": 1' + "0" * 400 + "}",
    '{"id": 1, "value": NaN}', '{"id": 1, "value": -Infinity}',
], ids=["not-json", "string", "list", "null", "nested-too-deep",
        "unhashable-id", "bool-id", "bool-value", "int-beyond-float-range",
        "nan-value", "infinite-value"])
def test_malformed_answer_is_backend_error(answer):
    backend = SubprocessBackend(_descriptor(_one_answer_engine(answer)), timeout=5)
    try:
        with pytest.raises(BackendError, match="malformed backend response") as exc_info:
            backend.evaluate_state_many(["s"])
        assert not isinstance(exc_info.value, BackendTimeoutError)
    finally:
        backend.close()


def test_engine_that_writes_half_a_line_and_exits_is_backend_error():
    code = ("import sys; sys.stdin.readline(); "
            "sys.stdout.write('{\"id\": 1, \"val'); sys.stdout.flush()")
    backend = SubprocessBackend(
        _descriptor(f"{sys.executable} -c {shlex.quote(code)}"), timeout=10)
    try:
        exc = _bounded(lambda: backend.evaluate_state_many(["s"]), 5)
        assert isinstance(exc, BackendError) and not isinstance(exc, BackendTimeoutError)
        assert exc.request_id == 1
    finally:
        backend.close()


def test_client_starts_no_thread(mock_backend_cmd):
    before = threading.active_count()
    backend = SubprocessBackend(_descriptor(mock_backend_cmd("inorder")), timeout=10)
    try:
        assert len(backend.evaluate_state_many([f"s{i}" for i in range(5)])) == 5
        assert threading.active_count() == before
    finally:
        backend.close()
    assert threading.active_count() == before


def test_n_requests_yield_n_responses(mock_backend_cmd):
    backend = SubprocessBackend(_descriptor(mock_backend_cmd("outoforder")), timeout=10)
    try:
        values = backend.evaluate_state_many([f"s{i}" for i in range(25)])
        assert len(values) == 25
        assert len(set(values.tolist())) == 25
    finally:
        backend.close()


def test_timeout_raises_backend_timeout(mock_backend_cmd):
    backend = SubprocessBackend(_descriptor(mock_backend_cmd("hang")), timeout=1.0)
    try:
        with pytest.raises(BackendTimeoutError):
            backend.evaluate_state_many(["ok1", "HANG-me", "ok2"])
        # the backend still answers later requests normally
        values = backend.evaluate_state_many(["ok3"])
        assert len(values) == 1
    finally:
        backend.close()


def test_steady_answers_outlast_a_timeout_shorter_than_the_batch(mock_backend_cmd):
    # 40 answers at 0.05 s each take 2 s; no single wait comes near 1 s.
    states = [f"s{i}" for i in range(40)]
    backend = SubprocessBackend(_descriptor(mock_backend_cmd("slow")), timeout=1.0)
    reference = SubprocessBackend(_descriptor(mock_backend_cmd("inorder")), timeout=10)
    try:
        assert np.array_equal(backend.evaluate_state_many(states),
                              reference.evaluate_state_many(states))
    finally:
        backend.close()
        reference.close()


def test_close_closes_both_pipes_of_a_live_and_an_exited_engine(mock_backend_cmd):
    live = SubprocessBackend(_descriptor(mock_backend_cmd("inorder")), timeout=10)
    exited = SubprocessBackend(_descriptor("true"), timeout=2)
    exited._proc.wait(timeout=5)
    for backend in (live, exited):
        backend.close()
        assert backend._proc.stdin.closed and backend._proc.stdout.closed
        assert backend._proc.returncode is not None


def test_error_response_carries_request_id(mock_backend_cmd):
    backend = SubprocessBackend(_descriptor(mock_backend_cmd("error")), timeout=10)
    reference = SubprocessBackend(_descriptor(mock_backend_cmd("inorder")), timeout=10)
    try:
        with pytest.raises(BackendError) as exc_info:
            backend.evaluate_state_many(["fine", "BAD-state"])
        assert exc_info.value.request_id is not None
        # The answers after the error are left unread; the next batch must
        # still get its own values.
        with pytest.raises(BackendError):
            backend.evaluate_state_many(["BAD-first", "left", "over"])
        states = ["next", "batch"]
        assert np.array_equal(backend.evaluate_state_many(states),
                              reference.evaluate_state_many(states))
    finally:
        backend.close()
        reference.close()


def test_dead_process_is_backend_error():
    backend = SubprocessBackend(_descriptor("true"), timeout=2)
    try:
        backend._proc.wait(timeout=5)
        with pytest.raises(BackendError):
            backend.evaluate_state_many(["s"])
    finally:
        backend.close()


def test_engine_exiting_while_a_batch_is_written_is_backend_error():
    # it reads one request and exits; the batch is larger than a pipe buffer
    backend = SubprocessBackend(
        _descriptor(f"{sys.executable} -c 'import sys; sys.stdin.readline()'"), timeout=5)
    try:
        with pytest.raises(BackendError):
            backend.evaluate_state_many([f"state-{i:06d}" * 8 for i in range(2000)])
    finally:
        backend.close()


def _bounded(call, seconds: float):
    """The exception ``call`` raised, or None; fails the test when ``call``
    is still running after ``seconds``."""
    outcome = []

    def run():
        try:
            call()
        except Exception as exc:
            outcome.append(exc)
        else:
            outcome.append(None)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"call still running after {seconds} s"
    return outcome[0]


def test_engine_that_never_reads_a_large_batch_times_out():
    # about 120 KB of requests: more than a pipe buffer holds
    backend = SubprocessBackend(
        _descriptor(f"{sys.executable} -c 'import time; time.sleep(60)'"), timeout=0.5)
    states = [f"state-{i:06d}" * 4 for i in range(1000)]
    try:
        exc = _bounded(lambda: backend.evaluate_state_many(states), 10)
        assert isinstance(exc, BackendTimeoutError)
        # the first batch is still blocked in its write: a second one must not
        # interleave its requests with it
        start = time.monotonic()
        exc = _bounded(lambda: backend.evaluate_state_many(["s"]), 10)
        assert isinstance(exc, BackendTimeoutError)
        assert time.monotonic() - start < 0.5
        assert _bounded(backend.close, 10) is None
    finally:
        backend._proc.kill()


def test_engine_that_resumes_reading_serves_the_next_call():
    # it starts reading 0.6 s late: the first batch, about 120 KB, times out
    # with requests unsent, and the engine takes them once it reads again
    code = ("import json, sys, time\ntime.sleep(0.6)\nfor line in sys.stdin:\n"
            "    print(json.dumps({'id': json.loads(line)['id'], 'value': 0.5}), flush=True)\n")
    backend = SubprocessBackend(
        _descriptor(f"{sys.executable} -c {shlex.quote(code)}"), timeout=0.3)
    states = [f"state-{i:06d}" * 4 for i in range(1000)]
    try:
        exc = _bounded(lambda: backend.evaluate_state_many(states), 10)
        assert isinstance(exc, BackendTimeoutError)
        time.sleep(1.5)
        assert backend.evaluate_state_many(["s"]).tolist() == [0.5]
    finally:
        backend.close()


def _chatty_engine(setup: str, reads: bool) -> str:
    """An engine that runs ``setup``, then writes lines no call wants as fast
    as they are read, so its output is never idle; with ``reads`` it also
    reads its input a few bytes at a time."""
    code = ("import os, sys\n" + setup + "\nwhile True:\n"
            + ("    os.read(0, 8)\n" if reads else "")
            + "    sys.stdout.write('\\n{\"id\": 0}\\n' * 8000); sys.stdout.flush()\n")
    return f"{sys.executable} -c {shlex.quote(code)}"


@pytest.mark.parametrize("setup, reads", [
    ("sys.stdin.readline()", False),
    ("", True),
], ids=["reads-one-request", "reads-slowly"])
def test_engine_that_writes_but_never_answers_times_out(setup, reads):
    backend = SubprocessBackend(_descriptor(_chatty_engine(setup, reads)), timeout=0.5)
    states = [f"state-{i:06d}" * 4 for i in range(1000)]
    try:
        assert isinstance(_bounded(lambda: backend.evaluate_state_many(states), 5),
                          BackendTimeoutError)
        # most of the batch is still unsent: the next call fails at once
        start = time.monotonic()
        assert isinstance(_bounded(lambda: backend.evaluate_state_many(["s"]), 5),
                          BackendTimeoutError)
        assert time.monotonic() - start < 0.5
    finally:
        backend.close()


def test_error_answer_from_an_engine_that_then_stops_reading_is_backend_error():
    setup = ("import json\nrid = json.loads(sys.stdin.readline())['id']\n"
             "print(json.dumps({'id': rid, 'error': 'bad'}), flush=True)")
    backend = SubprocessBackend(_descriptor(_chatty_engine(setup, False)), timeout=0.5)
    states = [f"state-{i:06d}" * 4 for i in range(1000)]
    try:
        exc = _bounded(lambda: backend.evaluate_state_many(states), 5)
        assert isinstance(exc, BackendError) and not isinstance(exc, BackendTimeoutError)
        assert exc.request_id == 1
    finally:
        backend.close()


def test_endless_answer_line_is_backend_error():
    code = ("import sys, time; sys.stdin.readline()\n"
            "for _ in range(40): sys.stdout.write('x' * 65536); sys.stdout.flush()\n"
            "time.sleep(60)")
    backend = SubprocessBackend(
        _descriptor(f"{sys.executable} -c {shlex.quote(code)}"), timeout=10)
    try:
        exc = _bounded(lambda: backend.evaluate_state_many(["s"]), 5)
        assert isinstance(exc, BackendError) and not isinstance(exc, BackendTimeoutError)
    finally:
        backend.close()


def test_error_in_a_batch_larger_than_a_pipe_buffer_leaves_the_engine_usable(mock_backend_cmd):
    # about 300 KB of requests with a failing one second: the error comes back
    # while most of the batch is still being written
    backend = SubprocessBackend(_descriptor(mock_backend_cmd("error")), timeout=10)
    reference = SubprocessBackend(_descriptor(mock_backend_cmd("inorder")), timeout=10)
    states = ["fine", "BAD-state"] + [f"state-{i:06d}" * 6 for i in range(3000)]
    try:
        assert isinstance(_bounded(lambda: backend.evaluate_state_many(states), 20),
                          BackendError)
        outcome = []
        assert _bounded(lambda: outcome.append(backend.evaluate_state_many(["retry"])),
                        20) is None
        assert np.array_equal(outcome[0], reference.evaluate_state_many(["retry"]))
    finally:
        backend.close()
        reference.close()


# ---------------------------------------------------------------------------
# line codec: json.dumps and json.loads are the oracles

_ANY_TEXT = st.text(st.characters(exclude_categories=()), max_size=12)  # lone surrogates too
_TEXT_OR_NONE = st.none() | _ANY_TEXT
_ODD_FLOATS = (-0.0, 5e-324, 2.2250738585072014e-308, 1e308, 1e16, 0.1)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.tuples(_ANY_TEXT, _ANY_TEXT, _ANY_TEXT, _TEXT_OR_NONE, _TEXT_OR_NONE),
                          st.floats()), max_size=3))
@example([(("b", "value", "s", None, None), x) for x in _ODD_FLOATS])
@example([(("b", "value", "s", None, None), x) for x in (math.nan, math.inf, -math.inf)])
def test_cache_lines_equal_json_dumps(records):
    assert cache_lines(records) == "".join(
        json.dumps({"b": b, "k": k, "s": s, "m": m, "l": lv, "v": v}) + "\n"
        for (b, k, s, m, lv), v in records)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=1 << 64),
       st.lists(st.tuples(_ANY_TEXT, _ANY_TEXT, _TEXT_OR_NONE, _TEXT_OR_NONE), max_size=3))
def test_request_lines_equal_json_dumps(first, requests):
    ids = range(first, first + len(requests))
    assert request_lines(ids, requests) == "".join(
        json.dumps({"id": rid, "kind": kind, "state": state, "move": move, "level": level})
        + "\n" for rid, (kind, state, move, level) in zip(ids, requests)).encode()


_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _ANY_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_ANY_TEXT, inner, max_size=3),
    max_leaves=6)
_SPACE = st.text(st.sampled_from(" \t\n\r\x0b\x0c\xa0\x85\u2028\ufeff"), max_size=2)
_LINES = st.one_of(
    st.builds(lambda a, v, ascii_only, b: a + json.dumps(v, ensure_ascii=ascii_only) + b,
              _SPACE, _VALUES, st.booleans(), _SPACE),
    st.builds(lambda v, w: json.dumps(v) + json.dumps(w), _VALUES, _VALUES),
    st.builds(lambda v, cut: json.dumps(v)[:cut], _VALUES, st.integers(0, 20)),
    st.text(st.characters(exclude_categories=()), max_size=12),
)


def _outcome(load, line, errors=(ValueError, RecursionError)):
    try:
        return "ok", repr(load(line))  # repr: NaN equals NaN
    except errors:
        return "error", None


@settings(derandomize=True, max_examples=500, deadline=None)
@given(_LINES)
@example("\x0b{}")
@example("\xa0{}")
@example("{}\x0b")
@example(" \t{} \r\n")
@example("\ufeff{}")
@example("[" * 5000)
def test_decode_accepts_and_returns_what_json_loads_does(line):
    assert _outcome(decode, line) == _outcome(json.loads, line)


def _reference_parse(line: bytes) -> dict:
    """The answer rules on top of json.loads itself."""
    try:
        msg = json.loads(line)
    except (ValueError, RecursionError):
        msg = None
    if not isinstance(msg, dict) or isinstance(msg.get("id"), (list, dict, bool)):
        raise BackendError("malformed backend response")
    return msg


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(
    _LINES.map(lambda line: line.encode("utf-8", "surrogatepass")),
    st.builds(lambda v, encoding: json.dumps(v).encode(encoding), _VALUES,
              st.sampled_from(["utf-8-sig", "utf-16", "utf-16-le", "utf-32-be"])),
    st.binary(max_size=12),
))
@example(b'\x0b{"id": 1, "value": 0.5}')
@example(b'\xef\xbb\xbf{"id": 1, "value": 0.5}')
def test_answer_parse_accepts_and_returns_what_json_loads_does(line):
    assert (_outcome(SubprocessBackend._parse, line, BackendError)
            == _outcome(_reference_parse, line, BackendError))


# ---------------------------------------------------------------------------
# cache


class _CountingBackend(SyntheticBackend):
    def __init__(self, cfg):
        super().__init__(cfg)
        self.calls = 0

    def evaluate_state_many(self, states, moves=None):
        self.calls += len(states)
        return super().evaluate_state_many(states, moves)


def test_cache_round_trip_and_reuse(tmp_path):
    cfg = tiny_config()
    match = gen_matches(cfg, 0, ["c1"], 0.0)[0]
    states = list(to_datapoint(match).states)
    path = tmp_path / "cache.jsonl"

    inner = _CountingBackend(cfg)
    cached = CachedBackend(inner, ResponseCache(path))
    first = cached.evaluate_state_many(states)
    again = cached.evaluate_state_many(states)
    assert np.array_equal(first, again)
    assert inner.calls == len(states)  # second pass fully cached
    cached.close()

    inner2 = _CountingBackend(cfg)
    cached2 = CachedBackend(inner2, ResponseCache(path))
    third = cached2.evaluate_state_many(states)
    assert np.array_equal(first, third)
    assert inner2.calls == 0  # persisted across processes
    cached2.close()


def test_cache_skips_torn_tail_and_appends_on_a_fresh_line(tmp_path):
    path = tmp_path / "cache.jsonl"
    keys = [("b", "value", f"s{i}", None, None) for i in range(3)]
    cache = ResponseCache(path)
    cache.put_many([(keys[0], 0.25)])
    cache.put_many([(keys[1], 0.5)])
    cache.close()
    path.write_bytes(path.read_bytes()[:-10])  # the second record, half written
    cache = ResponseCache(path)
    assert cache.get(keys[0]) == 0.25
    assert cache.get(keys[1]) is None
    cache.put_many([(keys[2], 0.75)])
    cache.close()
    cache = ResponseCache(path)
    assert [cache.get(k) for k in keys] == [0.25, None, 0.75]
    assert path.read_text().count("\n") == 2


def test_cache_cuts_a_bad_last_line_that_ends_in_a_newline(tmp_path):
    path = tmp_path / "c.jsonl"
    good, later = ("b", "value", "s0", None, None), ("b", "value", "s1", None, None)
    cache = ResponseCache(path)
    cache.put_many([(good, 0.25)])
    cache.close()
    path.write_bytes(path.read_bytes() + b'{"b": "b", "k"\n')
    cache = ResponseCache(path)
    cache.put_many([(later, 0.5)])
    cache.close()
    cache = ResponseCache(path)
    assert [cache.get(k) for k in (good, later)] == [0.25, 0.5]
    assert path.read_text().count("\n") == 2


def test_cached_backend_fetches_a_repeated_request_once(tmp_path):
    cfg = tiny_config()
    states = list(to_datapoint(gen_matches(cfg, 0, ["rep"], 0.0)[0]).states[:3])
    inner = _CountingBackend(cfg)
    path = tmp_path / "cache.jsonl"
    cached = CachedBackend(inner, ResponseCache(path))
    values = cached.evaluate_state_many(states + states)
    cached.close()
    assert inner.calls == 3
    assert np.array_equal(values, np.tile(SyntheticBackend(cfg).evaluate_state_many(states), 2))
    assert path.read_text().count("\n") == 3


def test_cache_bad_line_before_the_end_is_data_error(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(path)
    for i in range(3):
        cache.put_many([(("b", "value", f"s{i}", None, None), float(i))])
    cache.close()
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], lines[1][:20], lines[2]]) + "\n")
    with pytest.raises(DataError, match="cache.jsonl:2:"):
        ResponseCache(path)


def _hand_written_line(state: str, value: str) -> bytes:
    return (f'{{"b": "b", "k": "value", "s": "{state}", "m": null, "l": null, '
            f'"v": {value}}}').encode()


def test_cache_cut_inside_a_character_of_its_last_line_is_a_torn_tail(tmp_path):
    path = tmp_path / "cache.jsonl"
    first, second = ("b", "value", "s0", None, None), ("b", "value", "s1", None, None)
    cache = ResponseCache(path)
    cache.put_many([(first, 0.25)])
    cache.close()
    line = _hand_written_line("\u00e9", "0.5")  # a raw two-byte character
    path.write_bytes(path.read_bytes() + line[:line.index(b"\xa9")])
    cache = ResponseCache(path)
    assert cache.get(first) == 0.25
    cache.put_many([(second, 0.5)])
    cache.close()
    assert [ResponseCache(path).get(k) for k in (first, second)] == [0.25, 0.5]
    assert path.read_text().count("\n") == 2


def test_cache_cut_inside_a_character_before_its_last_line_is_data_error(tmp_path):
    path = tmp_path / "cache.jsonl"
    line = _hand_written_line("\u00e9", "0.5")
    path.write_bytes(line[:line.index(b"\xa9")] + b"\n" + _hand_written_line("s", "0.5") + b"\n")
    with pytest.raises(DataError, match="cache.jsonl:1: bad UTF-8"):
        ResponseCache(path)


def test_cache_reads_but_never_serves_a_non_finite_value(tmp_path):
    path = tmp_path / "cache.jsonl"
    spellings = ("NaN", "Infinity", "-Infinity")
    path.write_bytes(b"\n".join(_hand_written_line(s, s) for s in spellings) + b"\n")
    cache = ResponseCache(path)
    assert [cache.get(("b", "value", s, None, None)) for s in spellings] == [None] * 3
    cache.put_many([(("b", "value", "NaN", None, None), 0.5)])
    cache.close()
    assert ResponseCache(path).get(("b", "value", "NaN", None, None)) == 0.5


def test_bank_requires_backends_for_enabled_families():
    bank = BackendBank()
    with pytest.raises(ConfigError):
        bank.require(need_strength=True, need_policy=False, need_value=False)

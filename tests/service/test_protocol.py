"""Wire-protocol unit tests: framing, validation, round-trips."""

import json

import pytest

from repro import jsonlog
from repro.core.experiment import ExperimentConfig
from repro.core.persistence import config_to_dict
from repro.core.runner import Row, run_config
from repro.errors import ProtocolError
from repro.service import protocol
from repro.service.jobs import JobLedger, JobSpec


def test_frame_round_trip():
    frame = {"v": 1, "op": "ping", "extra": [1, 2.5, "x"]}
    assert protocol.decode_frame(protocol.encode_frame(frame)) == frame


def test_encode_is_one_line():
    data = protocol.encode_frame({"op": "ping", "v": 1})
    assert data.endswith(b"\n")
    assert data.count(b"\n") == 1


@pytest.mark.parametrize("line", [b"", b"   \n", b"not json\n",
                                  b"[1,2,3]\n", b'"str"\n'])
def test_decode_rejects_garbage(line):
    with pytest.raises(ProtocolError):
        protocol.decode_frame(line)


def test_decode_rejects_oversized():
    blob = b"x" * (protocol.MAX_FRAME_BYTES + 1)
    with pytest.raises(ProtocolError, match="exceeds"):
        protocol.decode_frame(blob)


def test_check_request_validates_version_and_op():
    assert protocol.check_request({"v": 1, "op": "submit"}) == "submit"
    with pytest.raises(ProtocolError, match="version"):
        protocol.check_request({"v": 99, "op": "submit"})
    with pytest.raises(ProtocolError, match="unknown op"):
        protocol.check_request({"v": 1, "op": "explode"})


def test_submit_frame_round_trip():
    configs = [ExperimentConfig(app="ffvc", n_ranks=2, n_threads=2),
               ExperimentConfig(app="ccs-qcd", n_ranks=4, n_threads=2)]
    frame = protocol.submit_frame("f1", configs, "event", watch=False)
    # survives the actual wire encoding
    frame = protocol.decode_frame(protocol.encode_frame(frame))
    spec, watch = protocol.parse_submit(frame)
    assert (spec.name, spec.engine, watch) == ("f1", "event", False)
    assert list(spec.configs) == configs
    # defaults: the pre-deadline wire format decodes unchanged
    assert (spec.priority, spec.deadline_s, spec.client) \
        == ("normal", None, "")


def test_submit_frame_scheduling_fields_round_trip():
    configs = [ExperimentConfig(app="ffvc", n_ranks=2, n_threads=2)]
    frame = protocol.submit_frame("f1", configs, "event", watch=False,
                                  priority="high", deadline_s=12.5,
                                  client="bench-7")
    frame = protocol.decode_frame(protocol.encode_frame(frame))
    spec, _watch = protocol.parse_submit(frame)
    assert (spec.priority, spec.deadline_s, spec.client) \
        == ("high", 12.5, "bench-7")


def test_parse_submit_rejects_bad_specs():
    good = protocol.submit_frame(
        "f1", [ExperimentConfig(app="ffvc")], "event")
    for breakage in (
            {"name": ""}, {"engine": "warp"}, {"configs": []},
            {"configs": "nope"}, {"configs": [{"app": "no-such-app"}]},
            {"priority": "urgent"}, {"deadline_s": -1},
            {"deadline_s": "soon"}):
        frame = {**good, **breakage}
        with pytest.raises(ProtocolError):
            protocol.parse_submit(frame)


#: One breakage per check of the spec decoder.
BREAKAGES = [
    {"name": ""}, {"engine": "warp"}, {"configs": []},
    {"configs": "nope"}, {"configs": [{"app": "no-such-app"}]},
    {"priority": "urgent"}, {"deadline_s": -1}, {"deadline_s": "soon"},
]


@pytest.mark.parametrize("breakage", BREAKAGES, ids=repr)
def test_bad_spec_is_refused_on_the_wire_and_torn_in_the_ledger(
        breakage, tmp_path):
    configs = [ExperimentConfig(app="ffvc")]
    with pytest.raises(ProtocolError):
        protocol.parse_submit(
            {**protocol.submit_frame("f1", configs, "event"), **breakage})

    ledger = JobLedger(tmp_path / JobLedger.FILENAME)
    spec = JobSpec(name="f1", engine="event", configs=tuple(configs),
                   job_id="job-1", submitted_at=1.0)
    jsonlog.append(ledger.path, {
        "format": 1, "event": "submitted", "t": 1.0,
        "job": {**spec.to_dict(), **breakage}})
    assert ledger.replay() == {}
    assert ledger.torn_lines == 1


@pytest.mark.parametrize("deadline", [float("nan"), float("inf"), "nan"],
                         ids=repr)
def test_non_finite_deadline_is_refused_on_the_wire_and_torn_in_the_ledger(
        deadline, tmp_path):
    """A NaN deadline passes ``<= 0`` and never expires; an infinite
    one is no deadline.  Both are refused like any bad field."""
    configs = [ExperimentConfig(app="ffvc")]
    frame = {**protocol.submit_frame("f1", configs, "event"),
             "deadline_s": deadline}
    with pytest.raises(ProtocolError, match="deadline_s must be finite"):
        protocol.parse_submit(protocol.decode_frame(
            protocol.encode_frame(frame)))

    ledger = JobLedger(tmp_path / JobLedger.FILENAME)
    spec = JobSpec(name="f1", engine="event", configs=tuple(configs),
                   job_id="job-1", submitted_at=1.0)
    jsonlog.append(ledger.path, {
        "format": 1, "event": "submitted", "t": 1.0,
        "job": {**spec.to_dict(), "deadline_s": deadline}})
    assert ledger.replay() == {}
    assert ledger.torn_lines == 1


def test_ledger_submit_without_job_id_is_torn(tmp_path):
    ledger = JobLedger(tmp_path / JobLedger.FILENAME)
    record = {"name": "f1", "engine": "event",
              "configs": [config_to_dict(ExperimentConfig(app="ffvc"))]}
    jsonlog.append(ledger.path, {"format": 1, "event": "submitted",
                                 "t": 1.0, "job": record})
    assert ledger.replay() == {}
    assert ledger.torn_lines == 1


_CONFIG_JSON = (
    b'{"allocation":"block","app":"ffvc","binding":{"policy":"compact",'
    b'"stride":1},"data_policy":"first-touch","dataset":"as-is",'
    b'"n_nodes":1,"n_ranks":2,"n_threads":2,"options_preset":"kfast",'
    b'"processor":"A64FX"}')


def test_submit_frame_bytes_are_pinned():
    configs = [ExperimentConfig(app="ffvc", n_ranks=2, n_threads=2)]
    assert protocol.encode_frame(
        protocol.submit_frame("f1", configs, "event")) == (
        b'{"configs":[' + _CONFIG_JSON + b'],"engine":"event",'
        b'"name":"f1","op":"submit","v":1,"watch":true}\n')
    assert protocol.encode_frame(protocol.submit_frame(
        "f1", configs, "analytic", watch=False, priority="high",
        deadline_s=12.5, client="bench-7")) == (
        b'{"client":"bench-7","configs":[' + _CONFIG_JSON + b'],'
        b'"deadline_s":12.5,"engine":"analytic","name":"f1","op":"submit",'
        b'"priority":"high","v":1,"watch":false}\n')


def test_frames_encode_as_json_dumps_does():
    """The shared encoder writes the bytes `json.dumps` wrote: submit,
    result (row) and error frames, with non-ASCII text, float edge
    values and NaN."""
    config = ExperimentConfig(app="ffvc", n_ranks=2, n_threads=2)
    frames = [
        protocol.submit_frame("f1-\u00e9t\u00e9 \u2603", [config], "analytic",
                              deadline_s=0.1 + 0.2, client="\U0001f680"),
        protocol.row_frame(0, Row(config, 1.1e-7, float("nan"), 5e300,
                                  1 / 3, "analytic"), "executed"),
        protocol.row_frame(1, Row(config, 0.0, -0.0, float("inf"),
                                  float("-inf")), "cache"),
        protocol.error_frame("overloaded", "queue f\u00fcll \u2014 retry",
                             queue_depth=7, retry_after_s=float("nan"),
                             detail={"\u00fc": [1.5, None, True]}),
    ]
    for frame in frames:
        assert protocol.encode_frame(frame) == (json.dumps(
            frame, sort_keys=True, separators=(",", ":")) + "\n").encode()


def test_row_frame_is_bit_exact():
    config = ExperimentConfig(app="ffvc", n_ranks=2, n_threads=2)
    row = run_config(config)
    frame = protocol.row_frame(3, row, "executed")
    # through real JSON bytes, as on the socket
    frame = json.loads(json.dumps(frame))
    index, decoded, source = protocol.parse_row(frame)
    assert index == 3 and source == "executed"
    assert decoded == row
    assert decoded.elapsed == row.elapsed  # float identity, not approx
    assert decoded.gflops == row.gflops


def test_parse_row_rejects_malformed():
    with pytest.raises(ProtocolError):
        protocol.parse_row({"type": "row", "index": 0, "row": {"bad": 1}})

"""Every output check rejects an output with one byte changed."""

import checks
from workloads import _cursor, parse_prometheus

REPORT = b'{"summary": {"total_domains": 1000, "expired_domains": 412}}'


def _corrupt(data: bytes, index: int) -> bytes:
    return data[:index] + bytes([data[index] ^ 0x01]) + data[index + 1:]


def test_report_file_check_rejects_one_corrupted_byte(tmp_path):
    path = tmp_path / "report.json"
    path.write_bytes(REPORT)
    reference = checks.digest(REPORT)
    assert checks.report_file_ok(path, reference)
    for index in (0, len(REPORT) // 2, len(REPORT) - 1):
        path.write_bytes(_corrupt(REPORT, index))
        assert not checks.report_file_ok(path, reference)
    path.unlink()
    assert not checks.report_file_ok(path, reference)


def test_columnar_digest_check_rejects_one_corrupted_byte():
    # reanalyze compares the worker's digest with the object-store report's
    reference = checks.digest(REPORT)
    assert checks.digest(_corrupt(REPORT, 7)) != reference


def test_served_report_check_rejects_one_corrupted_byte():
    assert checks.same_report(REPORT, bytes(REPORT))
    for index in (0, 10, len(REPORT) - 1):
        assert not checks.same_report(_corrupt(REPORT, index), REPORT)


def test_read_statuses():
    assert checks.read_ok("hot", 200)
    assert not checks.read_ok("hot", 404)
    assert not checks.read_ok("domain", 404)
    assert checks.read_ok("unknown", 404)
    assert not checks.read_ok("unknown", 200)
    assert checks.read_ok("conditional", 304)
    assert not checks.read_ok("domain", 304)
    assert not checks.read_ok("hot", 500)


def test_prometheus_parse_and_etag_cursor():
    text = (
        "# TYPE serve_cache_requests_total counter\n"
        'serve_cache_requests_total{outcome="hit"} 12\n'
        'serve_cache_requests_total{outcome="miss"} 3\n'
        "serve_request_all_seconds_sum 0.25\n"
    )
    samples = parse_prometheus(text)
    assert samples[("serve_cache_requests_total", frozenset({("outcome", "hit")}))] == 12
    assert samples[("serve_request_all_seconds_sum", frozenset())] == 0.25
    assert _cursor('"4-1000-5120-31-11"') == 11

"""The process-pool executor: payload pickling, fallback, detector cache.

The tentpole contract has three legs, each pinned here:

* every payload type that crosses the process boundary survives a pickle
  round-trip (the tentpole's transport invariant);
* a dying / raising pool degrades to the serial path, counts one
  ``executor.fallbacks{executor=process}`` per affected sweep, and still
  produces the serial executor's results;
* workers never reuse stale detection tables: the detector snapshot is
  keyed by chain version, so a mid-stream subscribe invalidates it.
"""

from __future__ import annotations

import pickle

import pytest

from repro.alerters import DetectorState, FetchedDocument
from repro.clock import SimulatedClock
from repro.errors import PipelineError, ReproError, XMLSyntaxError
from repro.pipeline import (
    Fetch,
    HTML_PAGE,
    ProcessExecutor,
    SubscriptionSystem,
    from_pairs,
)
from repro.pipeline.workers import (
    DetectRequest,
    DetectResponse,
    ParseRequest,
    ParseResponse,
    detect_slice,
    parse_slice,
    portable_error,
)
from repro.xmlstore import parse, serialize

SOURCE = """
subscription ProcPool
monitoring M
select <Hit url=URL/>
from self//Product X
where URL extends "http://www.shop"
  and new Product contains "camera"
report when immediate
"""


def build_system(executor="serial", **kwargs):
    system = SubscriptionSystem(
        clock=SimulatedClock(1_000_000.0), executor=executor, **kwargs
    )
    system.subscribe(SOURCE, owner_email="u@x")
    return system


def sample_pages(count=12):
    pages = []
    for i in range(count):
        if i % 5 == 3:
            pages.append((f"http://www.shop{i % 2}.example/{i}.xml", "<r><boom>"))
        else:
            pages.append(
                (
                    f"http://www.shop{i % 2}.example/{i}.xml",
                    f"<catalog><Product>camera v{i}</Product></catalog>",
                )
            )
    return pages


def summarize(system, results):
    snapshot = system.metrics_snapshot()
    notifications = sorted(
        (n.complex_code, n.document_url, n.timestamp)
        for result in results
        for n in result.notifications
    )
    return {
        "notifications": notifications,
        "documents_fed": snapshot["documents_fed"],
        "documents_rejected": snapshot["documents_rejected"],
        "rejections": snapshot["rejections"],
        "notifications_emitted": snapshot["notifications_emitted"],
    }


def roundtrip(value):
    return pickle.loads(pickle.dumps(value, pickle.HIGHEST_PROTOCOL))


class TestPayloadPickling:
    """Every stage-task payload type survives the process boundary."""

    def test_parse_request_response(self):
        request = ParseRequest(3, "http://a/x.xml", "<r><p>hi</p></r>")
        assert roundtrip(request) == request
        (response,) = parse_slice([request])
        back = roundtrip(response)
        assert back.index == 3 and back.error is None
        assert serialize(back.document) == serialize(response.document)

    def test_parse_response_carries_picklable_error(self):
        (response,) = parse_slice([ParseRequest(0, "http://a/x", "<r><boom>")])
        back = roundtrip(response)
        assert back.document is None
        assert isinstance(back.error, XMLSyntaxError)

    def test_fetch_and_fetched_document(self):
        fetch = Fetch("http://a/x.html", "<html>hi</html>", kind=HTML_PAGE)
        assert roundtrip(fetch) == fetch
        system = build_system()
        url = "http://www.shop.example/c.xml"
        system.feed_xml(url, "<catalog><Product>camera</Product></catalog>")
        fetched = FetchedDocument(
            url=url,
            meta=system.repository.meta_for_url(url),
            status="new",
            document=parse("<catalog><Product>camera</Product></catalog>"),
        )
        back = roundtrip(fetched)
        assert back.url == fetched.url
        assert back.meta == fetched.meta
        assert serialize(back.document) == serialize(fetched.document)

    def test_detector_state_and_detect_payloads(self):
        system = build_system()
        state = system.alerter_chain.detector_state()
        assert isinstance(state, DetectorState)
        back = roundtrip(state)
        assert back.token == state.token
        assert len(back.alerters) == len(state.alerters)

        url = "http://www.shop.example/c.xml"
        document = parse("<catalog><Product>camera</Product></catalog>")
        system.feed_xml(url, serialize(document))
        fetched = FetchedDocument(
            url=url,
            meta=system.repository.meta_for_url(url),
            status="new",
            document=document,
        )
        request = DetectRequest(1, fetched)
        blob = pickle.dumps(state, pickle.HIGHEST_PROTOCOL)
        (response,) = detect_slice(state.token, blob, [roundtrip(request)])
        assert response.error is None
        codes, payloads = roundtrip(response).detection
        direct_codes, _ = state.detect_events(fetched)
        assert codes == direct_codes

    def test_detect_response_error_slot(self):
        response = DetectResponse(2, error=PipelineError("boom"))
        back = roundtrip(response)
        assert isinstance(back.error, PipelineError)
        assert back.detection is None

    def test_portable_error_passthrough_and_fallbacks(self):
        keep = XMLSyntaxError("bad markup")
        assert portable_error(keep) is keep

        class Unpicklable(ReproError):
            def __init__(self):
                super().__init__("nope")
                self.handle = lambda: None  # lambdas never pickle

        class UnpicklableProgrammingError(Exception):
            def __init__(self):
                super().__init__("nope")
                self.handle = lambda: None

        substitute = portable_error(Unpicklable())
        assert isinstance(substitute, ReproError)  # stays a rejection
        assert "Unpicklable" in str(substitute)
        hard = portable_error(UnpicklableProgrammingError())
        assert not isinstance(hard, ReproError)  # stays fatal
        assert isinstance(hard, RuntimeError)


@pytest.fixture(scope="module")
def pool():
    executor = ProcessExecutor(workers=3)
    yield executor
    executor.close()


class TestProcessExecutor:
    def test_matches_serial(self, pool):
        serial = build_system("serial")
        expected = summarize(serial, serial.run_stream(from_pairs(sample_pages())))
        system = build_system(pool)
        actual = summarize(system, system.run_stream(from_pairs(sample_pages())))
        assert actual == expected

    def test_workers_one_uses_no_pool(self):
        executor = ProcessExecutor(workers=1)
        system = build_system(executor)
        system.feed_batch(from_pairs(sample_pages(6)))
        assert executor._pool is None
        executor.close()

    def test_broken_pool_falls_back_to_serial(self):
        serial = build_system("serial")
        expected = summarize(
            serial, serial.feed_batch(from_pairs(sample_pages()))
        )

        executor = ProcessExecutor(workers=3)

        def explode(*args, **kwargs):
            raise RuntimeError("pool died mid-sweep")

        executor._process_sweep = explode
        system = build_system(executor)
        actual = summarize(system, system.feed_batch(from_pairs(sample_pages())))
        assert actual == expected
        fallbacks = system.metrics_snapshot()["counters"][
            "executor.fallbacks{executor=process}"
        ]
        assert fallbacks == 2  # one per degraded sweep: parse, then detect
        executor.close()

    def test_broken_executor_discards_pool(self):
        from concurrent.futures.process import BrokenProcessPool

        executor = ProcessExecutor(workers=3)
        executor._ensure_pool()
        assert executor._pool is not None
        system = build_system(executor)
        executor._degrade(system, BrokenProcessPool("worker died"))
        assert executor._pool is None
        executor.close()

    def test_mid_stream_subscribe_invalidates_detector_blob(self, pool):
        system = build_system(pool)
        pages = sample_pages(8)
        system.feed_batch(from_pairs(pages))
        first_token = pool._blob_token
        system.subscribe(
            SOURCE.replace("ProcPool", "Second").replace("camera", "tripod"),
            owner_email="u@x",
        )
        changed = [
            (url, content.replace("camera", "tripod camera"))
            for url, content in pages
        ]
        system.feed_batch(from_pairs(changed))
        assert pool._blob_token != first_token
        assert pool._blob_token[1] > first_token[1]  # version advanced

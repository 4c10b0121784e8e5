"""Property test: batching never changes what a stream produces.

Hypothesis generates random crawl streams — repeated URLs, changing and
unchanged content, malformed pages, HTML mixed with XML — and asserts that
``run_stream`` at a drawn batch size produces exactly what it produces at
``batch_size=1`` (one document at a time): the same notifications, the
same rejection accounting and the same counters, on single and
flow-sharded MQPs.  Only the ``executor.*`` series may differ: they
describe the batches, so they depend on the batch size by design.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import SimulatedClock
from repro.pipeline import Fetch, HTML_PAGE, SubscriptionSystem

SOURCE = """
subscription Equiv
monitoring M
select <Hit url=URL/>
from self//Product X
where URL extends "http://www.shop"
  and new Product contains "camera"
report when immediate
"""

WORDS = ("camera", "tripod", "lens cap", "camera bag")


@st.composite
def fetches(draw):
    site = draw(st.integers(min_value=0, max_value=3))
    shape = draw(
        st.sampled_from(("xml", "xml", "xml", "malformed", "html"))
    )
    if shape == "malformed":
        return Fetch(f"http://www.shop{site}.example/catalog.xml", "<r><boom>")
    if shape == "html":
        return Fetch(
            f"http://www.shop{site}.example/index.html",
            "<html>camera sale</html>",
            kind=HTML_PAGE,
        )
    word = draw(st.sampled_from(WORDS))
    version = draw(st.integers(min_value=0, max_value=2))
    return Fetch(
        f"http://www.shop{site}.example/catalog.xml",
        f"<catalog><Product>{word} v{version}</Product></catalog>",
    )


streams = st.lists(fetches(), min_size=0, max_size=24)
batch_sizes = st.integers(min_value=1, max_value=7)


#: Counter families that describe batching itself, not the stream.
BATCH_DEPENDENT = ("executor.",)


def run(stream, batch_size, **kwargs):
    system = SubscriptionSystem(
        clock=SimulatedClock(1_000_000.0), batch_size=batch_size, **kwargs
    )
    system.subscribe(SOURCE, owner_email="u@x")
    results = system.run_stream(iter(stream))
    snapshot = system.metrics_snapshot()
    notifications = sorted(
        (n.complex_code, n.document_url, n.timestamp)
        for result in results
        for n in result.notifications
    )
    return {
        "notifications": notifications,
        "counters": {
            key: value
            for key, value in snapshot["counters"].items()
            if not key.startswith(BATCH_DEPENDENT)
        },
        "documents_fed": snapshot["documents_fed"],
        "documents_rejected": snapshot["documents_rejected"],
        "rejections": snapshot["rejections"],
        "notifications_emitted": snapshot["notifications_emitted"],
    }


@settings(max_examples=10, deadline=None)
@given(stream=streams, batch_size=batch_sizes)
def test_batching_preserves_stream_output(stream, batch_size):
    assert run(stream, batch_size) == run(stream, 1)


@settings(max_examples=10, deadline=None)
@given(stream=streams, batch_size=batch_sizes)
def test_batching_preserves_sharded_stream_output(stream, batch_size):
    """On a 3-shard flow-partitioned MQP too."""
    assert run(stream, batch_size, shards=3) == run(stream, 1, shards=3)


def _faulted_crawl_stream():
    """A deterministic fetch list from a crawl under 10% injected faults."""
    from repro.clock import SECONDS_PER_DAY
    from repro.faults import CircuitBreaker, FaultInjector, FaultPlan
    from repro.webworld import ChangeModel, SimulatedCrawler, SiteGenerator

    clock = SimulatedClock(990_000_000.0)
    injector = FaultInjector(FaultPlan.transient_only(0.1, seed=5))
    generator = SiteGenerator(seed=5)
    crawler = SimulatedCrawler(
        clock=clock,
        change_model=ChangeModel(seed=6),
        seed=7,
        fault_injector=injector,
        breaker_factory=lambda: CircuitBreaker(failure_threshold=50),
    )
    for i in range(6):
        crawler.add_xml_page(
            f"http://www.shop{i}.example/catalog.xml",
            generator.catalog(products=4),
            change_probability=0.7,
        )
    fetches = []
    for _ in range(4):
        fetches.extend(crawler.due_fetches())
        clock.advance(SECONDS_PER_DAY)
    # Mix in pages the loader must reject so the rejection path is
    # exercised alongside the fault-injected fetch sequence.
    fetches.insert(3, Fetch("http://www.shop0.example/bad.xml", "<r><boom>"))
    fetches.append(Fetch("http://www.shop1.example/bad.xml", "<nope"))
    return fetches


def test_batching_preserves_faulted_crawl_output():
    stream = _faulted_crawl_stream()
    assert len(stream) > 10
    one_at_a_time = run(stream, 1)
    assert one_at_a_time["documents_rejected"] == 2
    assert run(stream, 5) == one_at_a_time

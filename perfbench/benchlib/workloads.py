"""The three workloads: inputs from a seed, a timed closed loop, checks.

Each workload runs in *cycles*.  A cycle sets up from scratch (world
build, services, connections, warm-up requests -- timed as one set-up
sample), measures its operations, then checks their outputs outside the
timed region.  Every cycle of a run builds another world, from a seed
derived from the run's ``--seed``, so one run averages over several
worlds.  Every call is issued only after the previous one returned
(closed loop), from the benchmark's one process, over at most two
client connections.  A reference probe runs beside the timed
operations, and each operation is also reported at reference speed
(see ``speed.py``).

* ``batch-4x`` -- ``PaperReport(world).render_text()`` over a world four
  times the default size: ingest, detection and the analyses.
* ``live-follow`` -- a wired ``ServeService`` replays the default world
  from genesis in fixed 25-block ticks; one connection subscribes to
  alerts, a second runs a fixed number of ``LoadGenerator`` steps after
  every tick.
* ``serve-read`` -- the default world ingested to head during set-up,
  then a frozen version read by a ``LoadGenerator`` over the wire.
"""

from __future__ import annotations

import dataclasses
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from benchlib import checks
from benchlib.checks import CheckResult
from benchlib.speed import SpeedMeter

#: Every count in the default configuration that batch-4x multiplies.
BATCH_SCALE = 4
#: Live-follow tick width (blocks) -- fixed, the live path's unit of work.
TICK_BLOCKS = 25
#: Live-follow replays blocks [0, LIVE_LAST_BLOCK] of the default world;
#: trimmed from the ~16.9k-block head so four replays (four worlds) fit
#: one run: 4 x 240 ticks support the gated p98 tick.
LIVE_LAST_BLOCK = 5999
#: LoadGenerator steps issued after every live-follow tick.
READS_PER_TICK = 4
#: serve-read ingests to head in ticks this wide (same final version).
SERVE_STEP_BLOCKS = 2000
#: Seconds to wait for the subscriber to receive every published alert.
ALERT_DRAIN_TIMEOUT = 20.0
#: serve-read runs one reference probe after this many queries.
QUERIES_PER_PROBE = 10


def scaled_config(seed: int, scale: int = BATCH_SCALE, base=None):
    """The default ``SimulationConfig(seed)`` with its population and
    every ``WashMix`` count multiplied by ``scale``."""
    from repro.simulation.config import SimulationConfig, WashMix

    base = base if base is not None else SimulationConfig(seed=seed)
    mix = WashMix(
        **{
            f.name: getattr(base.wash_mix, f.name) * scale
            for f in dataclasses.fields(WashMix)
        }
    )
    return dataclasses.replace(
        base,
        seed=seed,
        legit_traders=base.legit_traders * scale,
        legit_sales_per_day=base.legit_sales_per_day * scale,
        legit_collections=base.legit_collections * scale,
        wash_target_collections=base.wash_target_collections * scale,
        wash_mix=mix,
    )


def build_world(config):
    # Looked up at call time so a traced cycle times the wrapped builder.
    from repro.simulation import builder

    return builder.build_default_world(config)


@dataclass
class Measurement:
    """What one cycle's timed region observed."""

    #: Latency of each primary operation, in ms.
    op_ms: List[float] = field(default_factory=list)
    #: The same latencies at reference speed, in ms.
    op_ref_ms: List[float] = field(default_factory=list)
    #: Units of work done (blocks for batch and live, queries for serve).
    work: float = 0.0
    #: Wall-clock seconds the operations took (probes excluded).
    wall_s: float = 0.0
    #: The same seconds at reference speed.
    ref_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: Further latency samples by name (alert delivery, live reads...).
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: Per-layer observations the workload makes itself (traced cycles).
    observed: Dict[str, float] = field(default_factory=dict)

    #: Host speed over the timed region, as the reference-speed factor
    #: of all its probes (for the report; see ``speed.py``).
    speed: float = 0.0

    def totals(self, meter: SpeedMeter, extra_s: float = 0.0, extra_ref_s: float = 0.0):
        """Fill the time totals from the per-operation times (plus other
        timed work, such as live-follow's reads) and the host speed."""
        self.wall_s = sum(self.op_ms) / 1e3 + extra_s
        self.ref_s = sum(self.op_ref_ms) / 1e3 + extra_ref_s
        self.speed = meter.factor(float("-inf"), float("inf"))
        return self


class StampedQueue(queue.Queue):
    """An alert queue that records when each alert ``seq`` arrived."""

    def __init__(self) -> None:
        super().__init__()
        self.arrivals: Dict[int, float] = {}
        self.seqs: List[int] = []

    def put(self, item, block=True, timeout=None):
        now = time.perf_counter()
        self.seqs.append(item.seq)
        self.arrivals.setdefault(item.seq, now)
        super().put(item, block, timeout)


class Workload:
    """One workload; subclasses implement the four cycle steps."""

    name = ""
    #: Cycles per untraced run (set-up is sampled this often).
    cycles = 3
    #: Tail percentile the op latency is gated on (None: too few
    #: operations per run for any percentile; the median stands in).
    tail_pct: Optional[float] = None
    #: Unit of ``Measurement.work`` (for the human-readable report).
    work_unit = ""
    #: The workload's own names for the generic end-to-end metrics.
    metric_names: Dict[str, str] = {}
    #: Further latency samples reported by name, with their tail percentile.
    extra_latencies: Tuple[Tuple[str, float], ...] = ()

    def setup(self, seed: int):
        raise NotImplementedError

    def measure(self, state, budget_s: float, traced: bool, meter: SpeedMeter) -> Measurement:
        raise NotImplementedError

    def check(self, state, seed: int, measurement: Measurement, final: bool) -> List[CheckResult]:
        raise NotImplementedError

    def teardown(self, state) -> None:
        pass

    def e2e_seconds(self, measurement: Measurement) -> float:
        """The end-to-end time the tracing overhead is computed from."""
        return measurement.wall_s


def cache_delta(before, after) -> Dict[str, float]:
    """Aggregate-cache hit ratio and invalidations between two readings."""
    hits = after.hits - before.hits
    lookups = hits + after.misses - before.misses
    return {
        "serve.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "serve.cache.invalidated": after.invalidated - before.invalidated,
    }


# -- batch-4x -------------------------------------------------------------------


class BatchWorkload(Workload):
    name = "batch-4x"
    cycles = 3
    tail_pct = None
    work_unit = "blocks"
    metric_names = {
        "ops_per_s": "batch_blocks_per_s",
        "op_p50_ms": "batch_p50_ms",
        "op_tail_ms": "batch_tail_ms",
    }

    def setup(self, seed: int):
        return {"world": build_world(scaled_config(seed))}

    def measure(self, state, budget_s, traced, meter):
        from repro.analysis.report import PaperReport

        world = state["world"]
        blocks = world.node.block_number + 1
        m = Measurement()
        begin = time.perf_counter()
        renders = []
        # A render takes seconds: the probe samples it from beside.
        with meter.sampling():
            while True:
                report = PaperReport(world)
                busy = meter.busy_s
                started = time.perf_counter()
                report.render_text()
                ended = time.perf_counter()
                renders.append((started, ended, ended - started - (meter.busy_s - busy)))
                m.work += blocks
                m.attempted += 1
                state["report"] = report
                if time.perf_counter() - begin >= budget_s:
                    break
        m.op_ms = [elapsed * 1e3 for _, _, elapsed in renders]
        m.op_ref_ms = [
            elapsed * meter.factor(started, ended) * 1e3 for started, ended, elapsed in renders
        ]
        return m.totals(meter)

    def e2e_seconds(self, measurement):
        return sorted(measurement.op_ms)[len(measurement.op_ms) // 2] / 1e3

    def check(self, state, seed, measurement, final):
        report = state["report"]
        digest = checks.detection_digest(report.result)
        expected = checks.reference_digest(self.name, seed)
        if expected is not None:
            return [checks.compare(f"batch: reference digest of world {seed}", digest, expected)]
        if not final:
            # The kernel run would raise the peak memory later cycles read.
            return []
        other = kernel_digest(state["world"], report.dataset)
        return [checks.compare(f"batch: kernel engine agrees on world {seed}", digest, other)]


def kernel_digest(world, dataset) -> str:
    """Detection digest of the kernel engine over the same dataset."""
    from repro.core.detectors.pipeline import WashTradingPipeline

    pipeline = WashTradingPipeline(
        labels=world.labels, is_contract=world.is_contract, engine="kernel"
    )
    return checks.detection_digest(pipeline.run(dataset))


# -- live-follow -------------------------------------------------------------------


def _connect(server):
    """The subscriber and reader connections, each warmed by one request."""
    from repro.serve import RemoteQueryService, WireClient

    subscriber = WireClient(*server.address).connect()
    subscriber.ping()
    stream = subscriber.subscribe(-1)
    remote = RemoteQueryService(*server.address)
    remote.client.ping()
    return stream, remote


class LiveWorkload(Workload):
    name = "live-follow"
    cycles = 4
    # p98 (the highest percentile with ten ticks beyond it) is printed;
    # it is the 19th-slowest of 960 ticks, and host hiccups set it.
    tail_pct = 95.0
    work_unit = "blocks"
    metric_names = {
        "ops_per_s": "live_blocks_per_s",
        "op_p50_ms": "tick_p50_ms",
        "op_tail_ms": "tick_p95_ms",
    }
    extra_latencies = (("alert_ms", 98.0), ("live_query_ms", 99.0))

    def setup(self, seed: int):
        from repro.serve import ServeService
        from repro.serve.load import LoadGenerator
        from repro.simulation.config import SimulationConfig

        world = build_world(SimulationConfig(seed=seed))
        service = ServeService.for_world(world)
        server = service.serve_wire()
        stream, remote = _connect(server)
        # Nothing is published before the first tick, so swapping in the
        # stamping queue here cannot miss an alert.
        stream._queue = StampedQueue()
        load = LoadGenerator(remote, seed=seed, stop=threading.Event())
        return {
            "world": world, "service": service, "server": server,
            "stream": stream, "remote": remote, "load": load,
            "last": min(LIVE_LAST_BLOCK, world.node.block_number),
        }

    def measure(self, state, budget_s, traced, meter):
        service, load, last = state["service"], state["load"], state["last"]
        monitor = service.monitor
        cache_before = service.cache_stats()
        m = Measurement()
        ticks: List[Tuple[float, float]] = []
        reads: List[Tuple[float, float]] = []
        tick_start: Dict[int, float] = {}
        tick_end: Dict[int, float] = {}
        sums = {"stream.new_transfers": 0, "stream.touched_tokens": 0, "stream.dirty_tokens": 0}
        if traced:
            def on_snapshot(snapshot):
                sums["stream.new_transfers"] += snapshot.new_transfer_count
                sums["stream.touched_tokens"] += snapshot.touched_token_count
                sums["stream.dirty_tokens"] += snapshot.dirty_token_count

            monitor.subscribe_snapshots(on_snapshot)
        block = monitor.cursor.next_block
        while block <= last:
            upper = min(block + TICK_BLOCKS - 1, last)
            first_seq = monitor.next_seq
            started = time.perf_counter()
            service.advance(upper)
            ended = time.perf_counter()
            ticks.append((started, ended - started))
            m.attempted += 1
            for seq in range(first_seq, monitor.next_seq):
                tick_start[seq] = started
                tick_end[seq] = ended
            for _ in range(READS_PER_TICK):
                read_started = time.perf_counter()
                try:
                    load.step()
                except Exception as error:  # a failed read is counted, not fatal
                    m.failed += 1
                    m.errors.append(f"read: {error!r}")
                reads.append((read_started, time.perf_counter() - read_started))
                m.attempted += 1
            meter.sample()
            block = upper + 1
        m.op_ms = [elapsed * 1e3 for _, elapsed in ticks]
        m.op_ref_ms = [meter.scale(started, elapsed) * 1e3 for started, elapsed in ticks]
        m.totals(meter, extra_s=sum(elapsed for _, elapsed in reads),
                 extra_ref_s=sum(meter.scale(started, elapsed) for started, elapsed in reads))
        m.work = last + 1
        m.failed += len(load.errors)
        m.errors.extend(load.errors)
        load.errors.clear()

        arrivals = self._drain(state["stream"], monitor.next_seq)
        alert_ms = [(arrivals[s] - tick_start[s]) * 1e3 for s in sorted(arrivals) if s in tick_start]
        m.samples = {"live_query_ms": [elapsed * 1e3 for _, elapsed in reads],
                     "alert_ms": alert_ms}
        state["published"] = monitor.next_seq
        if traced:
            quarter = max(len(m.op_ms) // 4, 1)
            first = sum(m.op_ms[:quarter])
            lags = sorted((arrivals[s] - tick_end[s]) * 1e3 for s in arrivals if s in tick_end)
            m.observed = dict(sums)
            m.observed["stream.tick_growth"] = sum(m.op_ms[-quarter:]) / first if first else 0.0
            m.observed["serve.wire.push_lag_ms"] = lags[len(lags) // 2] if lags else 0.0
            m.observed.update(cache_delta(cache_before, service.cache_stats()))
        return m

    @staticmethod
    def _drain(stream, published: int) -> Dict[int, float]:
        """Wait (bounded) until every published alert has arrived."""
        stamped = stream._queue
        deadline = time.perf_counter() + ALERT_DRAIN_TIMEOUT
        while len(stamped.arrivals) < published and time.perf_counter() < deadline:
            time.sleep(0.005)
        return dict(stamped.arrivals)

    def check(self, state, seed, measurement, final):
        results = [
            checks.exactly_once(
                "live: every alert seq received once",
                list(state["stream"]._queue.seqs), state["published"],
            )
        ]
        if final:
            from repro.core.detectors.pipeline import WashTradingPipeline
            from repro.ingest.dataset import build_dataset
            from repro.serve.parity import serving_parity_mismatches

            world = state["world"]
            dataset = build_dataset(
                world.node, world.marketplace_addresses, to_block=state["last"]
            )
            batch = WashTradingPipeline(
                labels=world.labels, is_contract=world.is_contract, engine="columnar"
            ).run(dataset)
            results.append(
                checks.from_mismatches(
                    "live: serving parity vs batch",
                    serving_parity_mismatches(state["service"].query, batch),
                )
            )
        return results

    def teardown(self, state):
        state["remote"].close()
        state["stream"].close()
        state["service"].shutdown()


# -- serve-read --------------------------------------------------------------------


class ServeReadWorkload(Workload):
    name = "serve-read"
    cycles = 4
    tail_pct = 99.0
    work_unit = "queries"
    metric_names = {
        "ops_per_s": "query_qps",
        "op_p50_ms": "query_p50_ms",
        "op_tail_ms": "query_p99_ms",
    }

    def setup(self, seed: int):
        from repro.serve import RemoteQueryService, ServeService
        from repro.serve.load import LoadGenerator
        from repro.simulation.config import SimulationConfig

        world = build_world(SimulationConfig(seed=seed))
        service = ServeService.for_world(world)
        service.run(step_blocks=SERVE_STEP_BLOCKS)
        server = service.serve_wire()
        remote = RemoteQueryService(*server.address)
        # The warm-up request pins the frozen version and fills the
        # client's version cache (token order + accounts).
        remote.version()
        load = LoadGenerator(remote, seed=seed, stop=threading.Event())
        return {"world": world, "service": service, "server": server,
                "remote": remote, "load": load}

    def measure(self, state, budget_s, traced, meter):
        service, load = state["service"], state["load"]
        cache_before = service.cache_stats()
        m = Measurement()
        queries: List[Tuple[float, float]] = []
        begin = time.perf_counter()
        while True:
            started = time.perf_counter()
            try:
                load.step()
            except Exception as error:  # a failed query is counted, not fatal
                m.failed += 1
                m.errors.append(f"query: {error!r}")
            now = time.perf_counter()
            queries.append((started, now - started))
            m.attempted += 1
            if m.attempted % QUERIES_PER_PROBE == 0:
                meter.sample()
            if now - begin >= budget_s:
                break
        meter.sample()
        m.op_ms = [elapsed * 1e3 for _, elapsed in queries]
        m.op_ref_ms = [meter.scale(started, elapsed) * 1e3 for started, elapsed in queries]
        m.totals(meter)
        m.work = len(m.op_ms)
        m.failed += len(load.errors)
        m.errors.extend(load.errors)
        load.errors.clear()
        if traced:
            m.observed = cache_delta(cache_before, service.cache_stats())
        return m

    def e2e_seconds(self, measurement):
        return measurement.wall_s / max(len(measurement.op_ms), 1)

    def check(self, state, seed, measurement, final):
        if not final:
            return []
        from repro.serve import WireClient, wire_parity_mismatches

        server = state["server"]
        client = WireClient(*server.address).connect()
        try:
            problems = wire_parity_mismatches(
                client, state["service"].query, server.lookup_version
            )
        finally:
            client.close()
        return [checks.from_mismatches("serve: wire parity", problems)]

    def teardown(self, state):
        state["remote"].close()
        state["service"].shutdown()


WORKLOADS = {
    workload.name: workload
    for workload in (BatchWorkload(), LiveWorkload(), ServeReadWorkload())
}

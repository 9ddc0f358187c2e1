"""The serve daemon end to end: incremental recompute, graceful
degradation under chaos, warm kill-9 recovery, signal-driven drain.

The acceptance gate lives here: for any sequence of corpus edits, the
daemon's published generation must normalize **byte-identical** to a
cold one-shot run over the final corpus state — across plain edits, a
chaos-crashed generation, and a kill-then-restart warm recovery — and
an incremental generation after a 1-file edit must re-parse exactly one
file.
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.exec.chaos import CHAOS_ENV, ChaosPlan
from repro.exec.checkpoint import CheckpointStore
from repro.exec.executor import AnalysisExecutor, ExecutorConfig
from repro.ingest.archive import archive_digest
from repro.ingest.cache import ParseCache
from repro.ingest.snapshot import snapshot_corpus
from repro.model.network import Network
from repro.serve import ServeConfig, ServeDaemon
from repro.serve.generation import normalize_generation, run_generation
from repro.synth.templates.example_fig1 import build_example_networks

POLL = 0.05
WAIT = 30.0


def write_corpus(root) -> None:
    os.makedirs(root, exist_ok=True)
    configs, _meta = build_example_networks()
    for name, text in sorted(configs.items()):
        with open(os.path.join(root, name), "w") as handle:
            handle.write(text)


def edit_file(corpus: str, index: int = 0, marker: str = "edit") -> str:
    name = sorted(os.listdir(corpus))[index]
    with open(os.path.join(corpus, name), "a") as handle:
        handle.write(f"! serve-test {marker}\n")
    return name


def wait_for(predicate, what: str, timeout: float = WAIT) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {what}")


def cold_normalized(corpus: str) -> str:
    """A cold one-shot run over the corpus: no cache, no checkpoints."""
    executor = AnalysisExecutor(ExecutorConfig(chaos=ChaosPlan()))
    digest = snapshot_corpus(corpus).digest
    outcome = run_generation(corpus, digest, executor=executor, cache=None)
    assert outcome.complete, outcome.error
    return json.dumps(normalize_generation(outcome.payload), sort_keys=True)


def served_normalized(daemon: ServeDaemon) -> str:
    payload = daemon.state.published
    assert payload is not None
    return json.dumps(normalize_generation(payload), sort_keys=True)


@pytest.fixture()
def corpus(tmp_path):
    root = str(tmp_path / "corpus")
    write_corpus(root)
    return root


@pytest.fixture()
def stores(tmp_path):
    return {
        "cache": ParseCache(root=str(tmp_path / "cache")),
        "checkpoints": CheckpointStore(root=str(tmp_path / "ckpt")),
    }


def make_daemon(corpus, stores, **overrides) -> ServeDaemon:
    config = ServeConfig(
        corpus=corpus,
        poll_interval=POLL,
        cache=stores["cache"],
        checkpoints=stores["checkpoints"],
        backoff=0.05,
        max_backoff=0.2,
        grace=5.0,
        **overrides,
    )
    return ServeDaemon(config)


def get(daemon: ServeDaemon, path: str):
    try:
        with urllib.request.urlopen(daemon.http.url + path, timeout=5) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestLifecycle:
    def test_serves_increments_and_matches_cold(self, corpus, stores):
        daemon = make_daemon(corpus, stores)
        daemon.start()
        try:
            # Liveness before readiness.
            assert get(daemon, "/health")[0] == 200
            wait_for(lambda: daemon.state.ready, "first generation")
            assert get(daemon, "/ready")[0] == 200
            code, manifest = get(daemon, "/manifest")
            assert manifest["dispositions"]["parsed"] == 6

            # Edit one file: the next generation re-parses exactly 1 file.
            edit_file(corpus, 0, "gen2")
            wait_for(lambda: daemon.state.generation >= 2, "generation 2")
            _code, manifest = get(daemon, "/manifest")
            assert manifest["dispositions"]["parsed"] == 1
            assert manifest["dispositions"]["cached"] == 5

            # A second edit sequence: remove a file, add a file.
            os.remove(os.path.join(corpus, sorted(os.listdir(corpus))[1]))
            wait_for(lambda: daemon.state.generation >= 3, "generation 3")

            # Equivalence gate: the published generation is byte-identical
            # (normalized) to a cold one-shot run over the final corpus.
            assert served_normalized(daemon) == cold_normalized(corpus)

            # The published diff names the removed file.
            diff = daemon.state.published["diff"]
            assert len(diff["removed"]) == 1

            status = get(daemon, "/status")[1]
            assert status["health"] == "ok"
            assert status["staleness"]["serving_current_corpus"] is True
            counters = get(daemon, "/metrics")[1]["counters"]
            assert counters["serve.generations.published"] >= 3
        finally:
            daemon.shutdown()
            daemon.drain()

    def test_http_surface_routes(self, corpus, stores):
        daemon = make_daemon(corpus, stores)
        daemon.start()
        try:
            wait_for(lambda: daemon.state.ready, "first generation")
            code, instances = get(daemon, "/instances")
            assert code == 200 and instances
            code, pathways = get(daemon, "/pathways")
            assert code == 200 and len(pathways) == 6
            router = sorted(pathways)[0]
            code, single = get(daemon, f"/pathways?router={router}")
            assert code == 200 and list(single) == [router]
            assert get(daemon, "/pathways?router=nope")[0] == 404
            assert get(daemon, "/diagnostics")[0] == 200
            assert get(daemon, "/nonsense")[0] == 404
        finally:
            daemon.shutdown()
            daemon.drain()

    def test_not_ready_before_first_generation(self, tmp_path, stores):
        # An empty corpus never stabilizes into a useful generation fast;
        # query the endpoints before the worker has published anything.
        corpus = str(tmp_path / "empty")
        os.makedirs(corpus)
        daemon = make_daemon(corpus, stores)
        daemon.start()
        try:
            assert get(daemon, "/health")[0] == 200
            assert get(daemon, "/ready")[0] == 503
            assert get(daemon, "/manifest")[0] == 503
            assert get(daemon, "/instances")[0] == 503
        finally:
            daemon.shutdown()
            daemon.drain()


class TestChaosSurvival:
    def test_crashed_generation_keeps_previous_serving(
        self, corpus, stores, monkeypatch
    ):
        daemon = make_daemon(corpus, stores, stage_deadline=30.0)
        daemon.start()
        try:
            wait_for(lambda: daemon.state.ready, "first generation")
            gen1 = daemon.state.published_digest

            # Arm chaos, then edit: the rebuild crashes in `pathways`.
            monkeypatch.setenv(CHAOS_ENV, "*:pathways=raise")
            edit_file(corpus, 0, "crash-me")
            wait_for(
                lambda: daemon.state.consecutive_failures >= 1,
                "failed generation",
            )
            # Old generation still serving; readiness unaffected.
            assert daemon.state.published_digest == gen1
            assert get(daemon, "/ready")[0] == 200
            status = get(daemon, "/status")[1]
            assert status["health"] == "degraded"
            assert status["staleness"]["serving_current_corpus"] is False
            assert "pathways" in (status["last_error"] or "")

            # Disarm chaos: the breaker expires and the rebuild succeeds.
            monkeypatch.delenv(CHAOS_ENV)
            wait_for(
                lambda: daemon.state.published_digest != gen1,
                "recovery generation",
            )
            assert get(daemon, "/status")[1]["health"] == "ok"
            # Equivalence holds across the crashed-generation detour.
            assert served_normalized(daemon) == cold_normalized(corpus)
        finally:
            daemon.shutdown()
            daemon.drain()

    def test_hung_generation_times_out_and_previous_serves(
        self, corpus, stores, monkeypatch
    ):
        daemon = make_daemon(corpus, stores, stage_deadline=0.5)
        daemon.start()
        try:
            wait_for(lambda: daemon.state.ready, "first generation")
            gen1_digest = daemon.state.published_digest
            monkeypatch.setenv(CHAOS_ENV, "*:instances=hang")
            edit_file(corpus, 0, "hang-me")
            wait_for(
                lambda: daemon.state.consecutive_failures >= 1,
                "hung generation to time out",
            )
            assert daemon.state.published_digest == gen1_digest
            assert get(daemon, "/ready")[0] == 200
            assert get(daemon, "/status")[1]["health"] == "degraded"
        finally:
            monkeypatch.delenv(CHAOS_ENV, raising=False)
            daemon.shutdown()
            daemon.drain()

    def test_simulated_kill_is_contained(self, corpus, stores, monkeypatch):
        daemon = make_daemon(corpus, stores)
        daemon.start()
        try:
            wait_for(lambda: daemon.state.ready, "first generation")
            monkeypatch.setenv(CHAOS_ENV, "*:reachability=kill")
            edit_file(corpus, 0, "kill-me")
            wait_for(
                lambda: daemon.state.consecutive_failures >= 1,
                "killed generation",
            )
            assert get(daemon, "/ready")[0] == 200
            assert "SimulatedKill" in (
                get(daemon, "/status")[1]["last_error"] or ""
            )
            monkeypatch.delenv(CHAOS_ENV)
            wait_for(
                lambda: daemon.state.health == "ok", "recovery after kill"
            )
            assert served_normalized(daemon) == cold_normalized(corpus)
        finally:
            daemon.shutdown()
            daemon.drain()


class TestWarmRecovery:
    def test_restart_recovers_from_caches(self, corpus, stores):
        """Simulates the kill-9 path at the store level: the first daemon
        dies without any drain; a second daemon over the same parse cache
        and checkpoint store recovers warm (zero re-parses, all stages
        replayed) and serves the identical normalized generation."""
        first = make_daemon(corpus, stores)
        first.start()
        wait_for(lambda: first.state.ready, "first daemon's generation")
        before = served_normalized(first)
        # No drain, no shutdown: emulate sudden death (kill -9 never
        # runs handlers; in-process the equivalent is simply dropping
        # the daemon without calling drain()).
        first._stop.set()
        first.http.stop()

        second = make_daemon(corpus, stores)
        second.start()
        try:
            wait_for(lambda: second.state.ready, "warm recovery generation")
            _code, manifest = get(second, "/manifest")
            # Warm: every file replays from the parse cache ...
            assert manifest["dispositions"]["parsed"] == 0
            assert manifest["dispositions"]["cached"] == 6
            # ... every stage replays from the checkpoint store ...
            stages = manifest["execution"]["stages"]
            assert all(stage.get("from_checkpoint") for stage in stages)
            # ... and the result is identical to what the dead daemon
            # served, and to a cold run.
            assert served_normalized(second) == before
            assert served_normalized(second) == cold_normalized(corpus)
        finally:
            second.shutdown()
            second.drain()

    def test_edit_while_down_is_incremental_on_restart(self, corpus, stores):
        first = make_daemon(corpus, stores)
        first.start()
        wait_for(lambda: first.state.ready, "first daemon's generation")
        first._stop.set()
        first.http.stop()

        edit_file(corpus, 2, "edited-while-down")
        second = make_daemon(corpus, stores)
        second.start()
        try:
            wait_for(lambda: second.state.ready, "restart generation")
            _code, manifest = get(second, "/manifest")
            assert manifest["dispositions"]["parsed"] == 1
            assert manifest["dispositions"]["cached"] == 5
            assert served_normalized(second) == cold_normalized(corpus)
        finally:
            second.shutdown()
            second.drain()


class TestDebounce:
    def test_mid_edit_corpus_is_not_analyzed(self, corpus, stores):
        daemon = make_daemon(corpus, stores)
        # Drive ticks manually: no worker thread, deterministic polls.
        assert daemon.tick() is None  # first scan: stats not yet stable
        outcome = daemon.tick()  # second scan: stable -> generation runs
        assert outcome is not None and outcome.complete
        edit_file(corpus, 0, "debounce")
        assert daemon.tick() is None  # stats moved: debounce, no rebuild
        outcome = daemon.tick()  # stable again: rebuild
        assert outcome is not None and outcome.complete
        assert daemon.tick() is None  # steady state: nothing to do


class TestSnapshotRace:
    def test_bytes_that_moved_during_a_generation_never_publish(
        self, corpus, stores, monkeypatch
    ):
        daemon = make_daemon(corpus, stores)
        assert daemon.tick() is None
        assert daemon.tick().complete
        edited = edit_file(corpus, 0, "gen2")
        snapshot = snapshot_corpus(corpus).digest

        # One write lands after the snapshot is hashed, before the read.
        from_directory = Network.from_directory
        raced = []

        def racing_read(cls, path, *args, **kwargs):
            if not raced:
                raced.append(path)
                with open(os.path.join(path, edited), "a") as handle:
                    handle.write("! serve-test racing write\n")
            return from_directory(path, *args, **kwargs)

        monkeypatch.setattr(Network, "from_directory", classmethod(racing_read))
        assert daemon.tick() is None  # stats moved: debounce
        racing = daemon.tick()
        assert raced and racing.digest == snapshot
        assert not racing.complete
        assert racing.error == "corpus changed during the generation"
        assert daemon.state.generation == 1

        # A later stable tick publishes the bytes on disk, under their digest.
        for _ in range(6):
            outcome = daemon.tick()
            if outcome is not None and outcome.complete:
                break
        else:
            raise AssertionError("no generation published after the race")
        payload = daemon.state.published
        inventory = payload["manifest"]["inventory"]
        assert payload["corpus_digest"] == archive_digest(
            (record["path"], record["sha256"]) for record in inventory
        )
        assert payload["corpus_digest"] == snapshot_corpus(corpus).digest
        assert daemon.state.status_payload()["staleness"]["serving_current_corpus"]


def _spawn_serve(corpus, tmp_path, *extra, chaos_env=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONUNBUFFERED"] = "1"
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env.pop(CHAOS_ENV, None)
    if chaos_env is not None:
        env[CHAOS_ENV] = chaos_env
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            corpus,
            "--port",
            "0",
            "--poll-interval",
            "0.1",
            "--grace",
            "5",
            "--checkpoint-dir",
            str(tmp_path / "ckpt"),
            *extra,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    line = process.stdout.readline()
    assert "serving" in line and "http://" in line, line
    url = line.strip().rsplit(" ", 1)[-1]
    return process, url


def _wait_ready(url: str, timeout: float = WAIT) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(url + "/ready", timeout=2) as r:
                if r.status == 200:
                    return
        except (urllib.error.URLError, ConnectionError, OSError):
            pass
        time.sleep(0.1)
    raise AssertionError("daemon never became ready")


class TestSignals:
    def test_sigterm_drains_and_exits_zero(self, corpus, tmp_path):
        process, url = _spawn_serve(corpus, tmp_path)
        try:
            _wait_ready(url)
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()

    def test_sigint_drains_and_exits_zero(self, corpus, tmp_path):
        process, url = _spawn_serve(corpus, tmp_path)
        try:
            _wait_ready(url)
            process.send_signal(signal.SIGINT)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()

    def test_kill9_then_restart_recovers_warm(self, corpus, tmp_path):
        process, url = _spawn_serve(corpus, tmp_path)
        try:
            _wait_ready(url)
        finally:
            process.kill()  # SIGKILL: no drain, no handlers
            process.wait()

        process, url = _spawn_serve(corpus, tmp_path)
        try:
            _wait_ready(url)
            with urllib.request.urlopen(url + "/manifest", timeout=5) as r:
                manifest = json.loads(r.read())
            # Warm recovery: the parse cache replays every file, the
            # checkpoint store replays every stage.
            assert manifest["dispositions"] == {
                "parsed": 0,
                "cached": 6,
                "quarantined": 0,
            }
            assert all(
                stage.get("from_checkpoint")
                for stage in manifest["execution"]["stages"]
            )
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()

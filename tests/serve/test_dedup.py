"""Exactly-once dedup under concurrency — the acceptance criterion.

Eight concurrent clients submit the identical sweep request; the server
must run exactly one underlying compute (one created job, one task set
in the manifest) and hand every client a byte-identical result body.
A second wave checks the quota ledger: per-client 429 accounting must
be exact.
"""

import json
import threading

import pytest

from repro.serve import ClientQuotas, ServeClient, run_load
from repro.serve.server import ServerThread

REQUEST = {"kind": "sweep", "scale": 0.05, "workloads": ["sha"],
           "configs": ["SmallBOOM"]}
CLIENTS = 8


@pytest.fixture(scope="module")
def host(tmp_path_factory):
    cache = tmp_path_factory.mktemp("dedup-cache")
    quotas = ClientQuotas(rate=1000.0, burst=1000.0, max_client_jobs=4)
    with ServerThread(cache, workers=2, max_queue=32,
                      quotas=quotas) as server_host:
        yield server_host


@pytest.fixture(scope="module")
def report(host):
    return run_load(host.port, REQUEST, clients=CLIENTS,
                    mode="duplicate", timeout=120.0)


class TestExactlyOnce:
    def test_every_client_completed(self, report):
        assert report.failed == 0, report.errors
        assert report.completed == CLIENTS

    def test_one_compute_many_attachments(self, host, report):
        counts = host.server.table.counts()
        assert counts["created"] == 1
        assert counts["deduped"] == CLIENTS - 1

    def test_results_are_byte_identical(self, report):
        assert len(report.bodies) == 1  # one request hash
        (texts,) = report.bodies.values()
        assert len(texts) == 1  # every client read the same bytes

    def test_manifest_shows_one_task_set(self, report):
        (texts,) = report.bodies.values()
        document = json.loads(next(iter(texts)))
        manifest = document["manifest"]
        assert manifest["experiments"] == 1  # sha x SmallBOOM, once
        assert document["ok"] is True

    def test_quota_slots_all_released(self, host, report):
        snapshot = host.server.quotas.snapshot()
        assert snapshot["inflight"] == {}

    def test_late_subscriber_attaches_to_done_job(self, host, report):
        client = ServeClient(port=host.port, client_id="latecomer")
        status, payload = client.submit(REQUEST)
        assert status == 202
        assert payload["deduped"]
        status, text = client.result_text(payload["job_id"])
        assert status == 200
        (texts,) = report.bodies.values()
        assert text == next(iter(texts))
        # instant settlement: no slot left charged
        assert host.server.quotas.inflight("latecomer") == 0


class TestQuotaAccounting:
    def test_per_client_429_accounting_is_exact(self, tmp_path):
        quotas = ClientQuotas(rate=1000.0, burst=1000.0,
                              max_client_jobs=1)
        with ServerThread(tmp_path, workers=1, max_queue=32,
                          quotas=quotas) as host:
            outcomes: dict[str, list[int]] = {}
            lock = threading.Lock()

            def hammer(name: str) -> None:
                client = ServeClient(port=host.port, client_id=name)
                codes = []
                # first submission occupies the 1-job quota; the next
                # two must be refused deterministically
                codes.append(client.submit(
                    dict(REQUEST, seed=hash(name) % 1000))[0])
                for extra in range(2):
                    codes.append(client.submit(
                        dict(REQUEST, seed=2000 + extra))[0])
                with lock:
                    outcomes[name] = codes

            threads = [threading.Thread(target=hammer, args=(f"q{i}",))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            snapshot = host.server.quotas.snapshot()
            for name, codes in outcomes.items():
                assert codes[0] == 202, (name, codes)
                assert codes[1:] == [429, 429], (name, codes)
                assert snapshot["rejections"][name][
                    "quota-exceeded"] == 2

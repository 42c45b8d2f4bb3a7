"""Golden digests of every observer's output.

The four observers (tracer, metrics, profiler, request spans) are pure
functions of the program, the configuration and the seed, so their
exports are pinned here byte for byte: a change to how the observers
are wired into the enforcement points must leave every digest alone.
Each run attaches all four observers at once.

The runs cover each enforcement point the observers hear from: the
Fig. 1 program on every enforcing backend, the hand-assembled Fig. 1
attacks under supervised restart, the HTTP macro under ``pkey`` +
``sysdeny`` injection with quarantine (JIT on and off), CI's 4-core
span-smoke loadtest and its injected 1-core flight-recorder run, and a
reduced tenants leg (quotas, revival, eviction, MPK key
virtualization).  :data:`FAMILIES` checks that the traced runs reach
every tracer event family, so no digest stays green only because its
run never reached a site.

To print the digests of the current tree::

    PYTHONPATH=src python -m tests.test_observer_golden
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.golite import build_program
from repro.machine import Machine, MachineConfig
from repro.spans import write_span_trace
from repro.workloads import asynchttp, loadgen, tenants
from repro.workloads.httpserver import run_http_server

from tests.fig1 import build_image

ROOT = pathlib.Path(__file__).resolve().parent.parent
OBSERVERS = dict(trace=True, metrics=True, profile=True, spans=True)
BACKENDS = ("mpk", "vtx", "lwc")
MACRO_INJECT = "pkey@main_1:every=4;sysdeny@main_1:every=4,after=2"

#: Tracer event names (or families, before the ``:``) the traced runs
#: must emit between them.
FAMILIES = (
    "prolog", "epilog", "execute", "sys", "guest-sys", "filter:allow",
    "filter:deny", "filter:inject", "transfer", "retag", "vm_exit",
    "violation", "contain", "contain:quarantine", "contain:revive",
    "contain:restart", "quota", "shootdown",
)


def _fig1(backend: str) -> list[Machine]:
    sources = [(ROOT / "examples" / "golite" / name).read_text()
               for name in ("libfx.go", "main.go")]
    machine = Machine(build_program(sources),
                      MachineConfig(backend=backend, **OBSERVERS))
    machine.run()
    return [machine]


def _fig1_attacks(backend: str) -> list[Machine]:
    machines = []
    for body in ("smash", "syscall"):
        machine = Machine(build_image(body=body), MachineConfig(
            backend=backend, fault_policy="kill-goroutine",
            restart_limit=1, inject="eagain@rcl:nr=102,every=2",
            **OBSERVERS))
        machine.run()
        machines.append(machine)
    return machines


def _macro(backend: str, jit: bool) -> list[Machine]:
    config = MachineConfig(
        backend=backend, fault_policy="quarantine",
        quarantine_threshold=1000, inject=MACRO_INJECT, inject_seed=7,
        jit=jit, **OBSERVERS)
    driver = run_http_server(backend, config=config, metrics=True)
    for _ in range(24):
        driver.request()
    return [driver.machine]


def _level(backend: str, offered: float, requests: int, cores: int,
           config: MachineConfig) -> Machine:
    """One loadtest level as ``loadgen.run_level`` drives it, keeping
    the machine."""
    machine = asynchttp.run_async_server(backend, config=config,
                                         workers=cores)
    ports = [asynchttp.PORT + i for i in range(cores)]
    arrivals = loadgen.poisson_arrivals(offered, requests, 7)
    loadgen.OpenLoopLoadGen(machine, arrivals, max(8, cores),
                            ports=ports).run()
    return machine


def _span_smoke() -> list[Machine]:
    return [_level(backend, 40000.0, 120, 4, MachineConfig(
        backend=backend, cores=4, span_seed=7, span_sample=0.5,
        **OBSERVERS)) for backend in ("mpk", "vtx")]


def _flight() -> list[Machine]:
    return [_level("mpk", 10000.0, 60, 1, MachineConfig(
        backend="mpk", fault_policy="quarantine",
        inject="pkey@main_1:every=10", span_seed=7, span_sample=0.0,
        **OBSERVERS))]


def _tenants() -> list[Machine]:
    profiles = tenants.assign_profiles(18, 0.15, 0.08, 0.08)
    machine = Machine(
        tenants.build_tenant_image(profiles),
        MachineConfig(backend="mpk", fault_policy="quarantine",
                      quotas=tenants.DEFAULT_QUOTAS,
                      inject=tenants.inject_spec_for(profiles),
                      virtualize_keys=True, span_seed=1, **OBSERVERS))
    machine.kernel.reclaim_notice = tenants.ERROR_RESPONSE
    machine.run()
    manager = tenants.TenantManager(machine, profiles)
    manager.launch_all()
    arrivals = loadgen.poisson_arrivals(10000.0, 150, 1)
    tenants.TenantLoadGen(machine, arrivals, 8, sorted(profiles),
                          manager=manager).run()
    return [machine]


RUNS = {
    **{f"fig1/{b}": (lambda b=b: _fig1(b)) for b in BACKENDS},
    **{f"fig1-attacks/{b}": (lambda b=b: _fig1_attacks(b))
       for b in BACKENDS},
    **{f"macro/{b}/{'jit' if jit else 'nojit'}":
       (lambda b=b, jit=jit: _macro(b, jit))
       for b in BACKENDS for jit in (True, False)},
    "loadtest/span-smoke": _span_smoke,
    "loadtest/flight": _flight,
    "tenants": _tenants,
}


def _sha(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:32]


def _json(value) -> str:
    return json.dumps(value, indent=1, sort_keys=True, default=str)


def outputs(machines: list[Machine], tmp: pathlib.Path) -> dict[str, str]:
    """Every observer export of ``machines``, as text."""
    out: dict[str, str] = {}
    for i, machine in enumerate(machines):
        chrome = tmp / f"chrome{i}.json"
        machine.tracer.write_chrome_trace(chrome)
        out[f"{i}/chrome"] = chrome.read_text()
        out[f"{i}/summary"] = _json(machine.tracer.summary())
        out[f"{i}/describe"] = "\n".join(machine.tracer.describe())
        registry = machine.metrics_registry
        out[f"{i}/metrics"] = registry.render_text()
        out[f"{i}/exemplars"] = registry.render_text(exemplars=True)
        out[f"{i}/folded"] = machine.profiler.folded()
        out[f"{i}/flight"] = _json(machine.spans.flight_recorder())
        out[f"{i}/containment"] = _json(machine.containment_report())
    spans = tmp / "spans.json"
    write_span_trace(spans, [(str(i), m.spans)
                             for i, m in enumerate(machines)])
    out["spans"] = spans.read_text()
    return out


def digests(run: str, tmp: pathlib.Path) -> tuple[dict[str, str], set]:
    """``({output: digest}, {tracer event names})`` of one run."""
    machines = RUNS[run]()
    names = {event.name for m in machines for event in m.tracer.events}
    return ({key: _sha(text)
             for key, text in outputs(machines, tmp).items()}, names)


GOLDEN: dict[str, dict[str, str]] = {
    'fig1-attacks/lwc': {
        '0/chrome': 'bbd6b7d4e69f48742763f8537aa9df1c',
        '0/containment': 'a0d5bc7b231defbf51cddab2e5a59130',
        '0/describe': '902c86d6a7da81ec25f32d31de7dc577',
        '0/exemplars': '837455d2adbaacc05b0f00e6b6f669e5',
        '0/flight': 'd7dee624e21061de833e617daf7f5619',
        '0/folded': 'd786c0045c13ba2dbfeef6efbc1f206c',
        '0/metrics': '837455d2adbaacc05b0f00e6b6f669e5',
        '0/summary': '70fde0ee7b07739ad09ef0d60130befc',
        '1/chrome': '70e690d3747baa9e2e953b5272af3361',
        '1/containment': '38ca00840a28451346e23d8b1bb2145e',
        '1/describe': '56e909b94e90e24b272e5783a5f47bb7',
        '1/exemplars': '5c593c6be2c5bf368670f7d076964d53',
        '1/flight': '669e199fcf686bd62d3a630d52922259',
        '1/folded': 'd786c0045c13ba2dbfeef6efbc1f206c',
        '1/metrics': '5c593c6be2c5bf368670f7d076964d53',
        '1/summary': '39792d9ac0f9995ff20f17517a44f2d0',
        'spans': 'ffebdd3cc226f03a27ed0271464292b8',
    },
    'fig1-attacks/mpk': {
        '0/chrome': 'ac28303c3427ecccb26c420dc65dcbe9',
        '0/containment': 'b85b972774ae2cffff0bd6f25c5b2324',
        '0/describe': '1be173ac744e8ef9abbfad74a5d76225',
        '0/exemplars': '916293f67bc4de9451b56a20b806b9bf',
        '0/flight': 'd8728e60fbe6d1e78bc80e510ea64674',
        '0/folded': 'ecf2bcdcdea4fcf0359472f6ce30e519',
        '0/metrics': '916293f67bc4de9451b56a20b806b9bf',
        '0/summary': '681e3f6987e4949cf1cc7b4f04518e31',
        '1/chrome': '735a4a441d618f0eda523d2c0556c81c',
        '1/containment': '34927f70fd95c2256ed26fea1401148b',
        '1/describe': '7f3569c7f50fbf8cf1d990c2b8033c6f',
        '1/exemplars': 'd33334c56f669ec0e07a95f08e03e38c',
        '1/flight': '5320faaa4f3bc50b27ab8336236cccf6',
        '1/folded': 'ecf2bcdcdea4fcf0359472f6ce30e519',
        '1/metrics': 'd33334c56f669ec0e07a95f08e03e38c',
        '1/summary': '05eadf92644974e668c9762564534ff2',
        'spans': 'ffebdd3cc226f03a27ed0271464292b8',
    },
    'fig1-attacks/vtx': {
        '0/chrome': 'eb8ff31b4668248092a77244062e6320',
        '0/containment': '7f75069d6dee8da26494262a16945ae8',
        '0/describe': 'a7a5cdc9b9a969a5e917741c38e289ed',
        '0/exemplars': 'f9dcd4b8e24f9101120be42abeba882e',
        '0/flight': '9f682169481404e4409fe5a46f18121f',
        '0/folded': '3f3d19d7cb9ff4d86e90392eaebe9634',
        '0/metrics': 'f9dcd4b8e24f9101120be42abeba882e',
        '0/summary': '661a738c93db1e0671ad3f97ed436b6b',
        '1/chrome': '4c3d37079ab33bcea7558a71f5cb09e6',
        '1/containment': 'f5ffc543e88c11ea9542c15064f5e82b',
        '1/describe': '98ca8557ff939edb9e0a9f71dc401d8e',
        '1/exemplars': 'd3cb576ea7041918f4bd687ea5623ca1',
        '1/flight': 'c5e1155b29deeade852399072f7ed56c',
        '1/folded': '300dee4e5bc582bdd06db673247f3601',
        '1/metrics': 'd3cb576ea7041918f4bd687ea5623ca1',
        '1/summary': '40dfc7e8ecb5a45db5827ddfa0ab80b7',
        'spans': 'ffebdd3cc226f03a27ed0271464292b8',
    },
    'fig1/lwc': {
        '0/chrome': 'e42bda20b5bdb9178d9f41157d683592',
        '0/containment': 'b6d560fade5eacec5213d473159cad5b',
        '0/describe': '82ac327bfa1e0cd36d3417bfcd3f1e66',
        '0/exemplars': 'a5f2ca6c7d7efa56ee66cff0c2aa6088',
        '0/flight': '5320faaa4f3bc50b27ab8336236cccf6',
        '0/folded': '70881853aa10bf23a23e689de568ef7f',
        '0/metrics': 'a5f2ca6c7d7efa56ee66cff0c2aa6088',
        '0/summary': '0d22fbcae9deaa1735fdf6abc3139ad3',
        'spans': '016201a9cc2b352f61b8a723627eb343',
    },
    'fig1/mpk': {
        '0/chrome': '6e5ffa465b964fbc25bedfe924c15f2b',
        '0/containment': 'b6d560fade5eacec5213d473159cad5b',
        '0/describe': 'a29daf3e3de2ec1712a62068a8ef4025',
        '0/exemplars': '1bbb94fa01acb6dd13106d60c9ecc699',
        '0/flight': '5320faaa4f3bc50b27ab8336236cccf6',
        '0/folded': '29bbe08f5f39dfab6d90556aa80101f3',
        '0/metrics': '1bbb94fa01acb6dd13106d60c9ecc699',
        '0/summary': '48bdd46958b8c7f8be49454ccb6004cb',
        'spans': '016201a9cc2b352f61b8a723627eb343',
    },
    'fig1/vtx': {
        '0/chrome': '7c1f9ad4ea2df6fd295f85f67316b9c4',
        '0/containment': 'b6d560fade5eacec5213d473159cad5b',
        '0/describe': '447a8e19e15c0d99ce88faa69f025b09',
        '0/exemplars': '436032dc768f43e2002a3868979dc48e',
        '0/flight': '5320faaa4f3bc50b27ab8336236cccf6',
        '0/folded': 'f5d4e6a567d0fe5b2c11d92977ec0f3d',
        '0/metrics': '436032dc768f43e2002a3868979dc48e',
        '0/summary': '5025a3b051571e063551b36618043736',
        'spans': '016201a9cc2b352f61b8a723627eb343',
    },
    'loadtest/flight': {
        '0/chrome': 'b98cc9c44d6df4d7a6e510b142e87d7d',
        '0/containment': 'c551d25e6f6de966a1317f57569f15ad',
        '0/describe': '03e3413d55748b7ababd7c83ec668f45',
        '0/exemplars': '47676c6c5efee41e9acdb6dc9658a09a',
        '0/flight': '00ee97359918c7b1fd57c50c046bfeb1',
        '0/folded': '065b043fd5d05d49fbfdf89cf3c20c51',
        '0/metrics': '47676c6c5efee41e9acdb6dc9658a09a',
        '0/summary': '7a696890fb6d28f238101e2341ec5698',
        'spans': '09005cf80d535bb46667b2ca3973ea37',
    },
    'loadtest/span-smoke': {
        '0/chrome': '7c47e8588305188932afcca6b07f8520',
        '0/containment': '5305bcf89d89f70b8bade952c3cb514a',
        '0/describe': 'e9f6c486492761f9eb60baed92656f5b',
        '0/exemplars': 'bc89ccf18db6bcf8a1b67845779cd2fc',
        '0/flight': '5320faaa4f3bc50b27ab8336236cccf6',
        '0/folded': '16c0464eaca48ed499d9fcad8cefd95f',
        '0/metrics': '676817d3a627f0224df43d241e559fb8',
        '0/summary': '5f4b704ecb4bf7af0e626e2d399fed89',
        '1/chrome': 'fceee2d10efa509201cae9be3ee2bb08',
        '1/containment': 'e4c1f937574eb3a70245abf73484d3b3',
        '1/describe': 'b6ae223369adc44ac0201df0b3eebbc0',
        '1/exemplars': '1d624fce57ba2ef200f8de74aa3fc9c3',
        '1/flight': '5320faaa4f3bc50b27ab8336236cccf6',
        '1/folded': 'c6055430d44554aa2288f9413892f865',
        '1/metrics': 'e43fae4fb45dea96f0ed7e7f0928ea79',
        '1/summary': 'a5f7fd09458ad08207b81106a3d77b91',
        'spans': 'bfbe539cd03d4814aa0cd85d0d866144',
    },
    'macro/lwc/jit': {
        '0/chrome': '262ce739846150e4f545868b0a5a2227',
        '0/containment': '5c40097b95a8369c9a79b6edcd7de343',
        '0/describe': '14577b0bfedf2046304e92352602bf8a',
        '0/exemplars': '819cef692a7307ae561e968f779c89de',
        '0/flight': '8fd0b5bbee46b6777c0352aaad0ca33f',
        '0/folded': 'eb5b8198fe7618787cf49dce49b77d7d',
        '0/metrics': '819cef692a7307ae561e968f779c89de',
        '0/summary': 'cc8b11929a5f5eb453202b39595c7b31',
        'spans': '016201a9cc2b352f61b8a723627eb343',
    },
    'macro/lwc/nojit': {
        '0/chrome': '262ce739846150e4f545868b0a5a2227',
        '0/containment': '5c40097b95a8369c9a79b6edcd7de343',
        '0/describe': '14577b0bfedf2046304e92352602bf8a',
        '0/exemplars': 'bd3cc3b8800342d5b9f8b43c517604eb',
        '0/flight': '8fd0b5bbee46b6777c0352aaad0ca33f',
        '0/folded': 'eb5b8198fe7618787cf49dce49b77d7d',
        '0/metrics': 'bd3cc3b8800342d5b9f8b43c517604eb',
        '0/summary': 'cc8b11929a5f5eb453202b39595c7b31',
        'spans': '016201a9cc2b352f61b8a723627eb343',
    },
    'macro/mpk/jit': {
        '0/chrome': 'b02b0033e5bafdb9ee041bbc79ba11a0',
        '0/containment': 'a4fd32091bfa45801047cdceedd5bcf8',
        '0/describe': '8209d963ab432ed06b10840d95634cba',
        '0/exemplars': '12ef532b64a12641854988ded41b5459',
        '0/flight': 'fc22d1896c9e6db45f681aa3da6e2000',
        '0/folded': '3c6e20e4677f835b9509a41b717641e1',
        '0/metrics': '12ef532b64a12641854988ded41b5459',
        '0/summary': 'a3a8a5222999cfda62368c4145f8f83b',
        'spans': '016201a9cc2b352f61b8a723627eb343',
    },
    'macro/mpk/nojit': {
        '0/chrome': 'b02b0033e5bafdb9ee041bbc79ba11a0',
        '0/containment': 'a4fd32091bfa45801047cdceedd5bcf8',
        '0/describe': '8209d963ab432ed06b10840d95634cba',
        '0/exemplars': '164f67e432dbb0e9c3510dbec08ac207',
        '0/flight': 'fc22d1896c9e6db45f681aa3da6e2000',
        '0/folded': '3c6e20e4677f835b9509a41b717641e1',
        '0/metrics': '164f67e432dbb0e9c3510dbec08ac207',
        '0/summary': 'a3a8a5222999cfda62368c4145f8f83b',
        'spans': '016201a9cc2b352f61b8a723627eb343',
    },
    'macro/vtx/jit': {
        '0/chrome': 'c94727c6ce9ca66fd54779dc8bb71886',
        '0/containment': '7713af4014bfd1560ad487e8deae8ac5',
        '0/describe': 'b3bef6ea7ef56bfd5a4fc1ac38f9650e',
        '0/exemplars': '59a51b9f86123edd6b4d7c1519218305',
        '0/flight': '7afb3bf79943fc9450c71d5bc3215f6c',
        '0/folded': '565b7d8cf42df196366f2829b0a87edd',
        '0/metrics': '59a51b9f86123edd6b4d7c1519218305',
        '0/summary': 'ddd0a2c1ecb82c95479d63875cefddb8',
        'spans': '016201a9cc2b352f61b8a723627eb343',
    },
    'macro/vtx/nojit': {
        '0/chrome': 'c94727c6ce9ca66fd54779dc8bb71886',
        '0/containment': '7713af4014bfd1560ad487e8deae8ac5',
        '0/describe': 'b3bef6ea7ef56bfd5a4fc1ac38f9650e',
        '0/exemplars': '5bc243e830eac8b907d3d1d0b2c74bd5',
        '0/flight': '7afb3bf79943fc9450c71d5bc3215f6c',
        '0/folded': '565b7d8cf42df196366f2829b0a87edd',
        '0/metrics': '5bc243e830eac8b907d3d1d0b2c74bd5',
        '0/summary': 'ddd0a2c1ecb82c95479d63875cefddb8',
        'spans': '016201a9cc2b352f61b8a723627eb343',
    },
    'tenants': {
        '0/chrome': '0566bc708a3d2661db9a83f0d7faa99c',
        '0/containment': '0b70d8bc72ca1150eed644fd77c88bb0',
        '0/describe': '7b7339d02dc7a86d621d42a3851d3089',
        '0/exemplars': '5fc6dccb8be57fabbaf452d80173eb7d',
        '0/flight': '3a2c3bfe6a0a4e46e5cbf032cbafde6c',
        '0/folded': 'ec255972b520f0c3ca6b9eb715decd34',
        '0/metrics': '8eab080ce4f66b91ba5ac8706565c339',
        '0/summary': 'e7f476b039488bb7422829681d56c9c8',
        'spans': '709559f101312d5f9481e0207827e2bb',
    },
}


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """``run -> digests(run)``, each run made at most once."""
    cache: dict[str, tuple[dict[str, str], set]] = {}

    def get(run: str) -> tuple[dict[str, str], set]:
        if run not in cache:
            tmp = tmp_path_factory.mktemp(run.replace("/", "-"))
            cache[run] = digests(run, tmp)
        return cache[run]

    return get


@pytest.mark.parametrize("run", sorted(RUNS))
def test_observer_outputs_match_golden(run, results):
    assert results(run)[0] == GOLDEN[run]


def test_traced_runs_reach_every_event_family(results):
    names = set().union(*(results(run)[1] for run in RUNS))
    families = names | {name.split(":", 1)[0] for name in names}
    assert sorted(set(FAMILIES) - families) == []


if __name__ == "__main__":  # pragma: no cover
    import tempfile

    with tempfile.TemporaryDirectory() as tmpdir:
        for name in sorted(RUNS):
            found, _ = digests(name, pathlib.Path(tmpdir))
            print(f"    {name!r}: {{")
            for key, value in sorted(found.items()):
                print(f"        {key!r}: {value!r},")
            print("    },")

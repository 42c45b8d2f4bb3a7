"""Golden digests of every observer's output.

The four observers (tracer, metrics, profiler, request spans) are pure
functions of the program, the configuration and the seed, so their
exports are pinned here byte for byte, as :func:`repro.artifacts.write`
lays them out in a run's bundle: a change to how the observers are
wired into the enforcement points, or to how a bundle is written, must
leave every digest alone.  Each run attaches all four observers at once.

The runs cover each enforcement point the observers hear from: the
Fig. 1 program on every enforcing backend, the hand-assembled Fig. 1
attacks under supervised restart, a goroutine whose resume into a
since-quarantined enclosure is refused, the HTTP macro under ``pkey`` +
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
import pathlib

import pytest

from repro import artifacts
from repro.golite import build_program
from repro.machine import Machine, MachineConfig
from repro.workloads import asynchttp, loadgen, tenants
from repro.workloads.httpserver import run_http_server

from tests.fig1 import build_image
from tests.test_trace import QUARANTINED_RESUME_SRC, SECRETS_SRC

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


def _quarantined_resume(backend: str) -> list[Machine]:
    machine = Machine(
        build_program([QUARANTINED_RESUME_SRC, SECRETS_SRC]),
        MachineConfig(backend=backend, fault_policy="quarantine",
                      **OBSERVERS))
    machine.run()
    return [machine]


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
    **{f"quarantined-resume/{b}": (lambda b=b: _quarantined_resume(b))
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


def digests(run: str, tmp: pathlib.Path) -> tuple[dict[str, str], set]:
    """``({output: digest}, {tracer event names})`` of one run.

    The outputs are the files of the run's artifact bundle, keyed by
    bundle path, except ``stats.json``, whose interpreter perf counters
    move with every fast path; plus, per machine, the tracer breakdown
    ``repro report`` prints (``LABEL/describe``) and the exposition
    without exemplars (``LABEL/metrics``).
    """
    machines = RUNS[run]()
    labelled = [(str(i), machine) for i, machine in enumerate(machines)]
    artifacts.write(tmp, labelled)
    found = {path.relative_to(tmp).as_posix(): _sha(path.read_bytes())
             for path in tmp.rglob("*")
             if path.is_file() and path.name != "stats.json"}
    for path, lines, _ in artifacts.read(tmp):
        label, _, name = path.rpartition("/")
        if name == "trace.json":
            found[f"{label}/describe"] = _sha("\n".join(lines))
    for label, machine in labelled:
        found[f"{label}/metrics"] = _sha(
            machine.metrics_registry.render_text())
    names = {event.name for m in machines for event in m.tracer.events}
    return found, names


GOLDEN: dict[str, dict[str, str]] = {
    'fig1-attacks/lwc': {
        '0/containment.json': 'a0d5bc7b231defbf51cddab2e5a59130',
        '0/describe': '902c86d6a7da81ec25f32d31de7dc577',
        '0/flight.json': 'd7dee624e21061de833e617daf7f5619',
        '0/metrics': '65a40d33a97e7ab768e32107abf35982',
        '0/metrics.prom': '65a40d33a97e7ab768e32107abf35982',
        '0/profile.folded': 'd786c0045c13ba2dbfeef6efbc1f206c',
        '0/trace-summary.json': '70fde0ee7b07739ad09ef0d60130befc',
        '0/trace.json': 'bbd6b7d4e69f48742763f8537aa9df1c',
        '1/containment.json': '38ca00840a28451346e23d8b1bb2145e',
        '1/describe': '56e909b94e90e24b272e5783a5f47bb7',
        '1/flight.json': '669e199fcf686bd62d3a630d52922259',
        '1/metrics': '8ec1f8c8c230a982b38d2125c4cc430f',
        '1/metrics.prom': '8ec1f8c8c230a982b38d2125c4cc430f',
        '1/profile.folded': 'd786c0045c13ba2dbfeef6efbc1f206c',
        '1/trace-summary.json': '39792d9ac0f9995ff20f17517a44f2d0',
        '1/trace.json': '70e690d3747baa9e2e953b5272af3361',
        'spans.json': 'ffebdd3cc226f03a27ed0271464292b8',
    },
    'fig1-attacks/mpk': {
        '0/containment.json': 'b85b972774ae2cffff0bd6f25c5b2324',
        '0/describe': '1be173ac744e8ef9abbfad74a5d76225',
        '0/flight.json': 'd8728e60fbe6d1e78bc80e510ea64674',
        '0/metrics': '923272914e7462cbc8161b75a1161a7f',
        '0/metrics.prom': '923272914e7462cbc8161b75a1161a7f',
        '0/profile.folded': 'ecf2bcdcdea4fcf0359472f6ce30e519',
        '0/trace-summary.json': '681e3f6987e4949cf1cc7b4f04518e31',
        '0/trace.json': 'ac28303c3427ecccb26c420dc65dcbe9',
        '1/containment.json': '34927f70fd95c2256ed26fea1401148b',
        '1/describe': '7f3569c7f50fbf8cf1d990c2b8033c6f',
        '1/flight.json': '5320faaa4f3bc50b27ab8336236cccf6',
        '1/metrics': 'f4c745376eb1a58f9c3c2e7b89793035',
        '1/metrics.prom': 'f4c745376eb1a58f9c3c2e7b89793035',
        '1/profile.folded': 'ecf2bcdcdea4fcf0359472f6ce30e519',
        '1/trace-summary.json': '05eadf92644974e668c9762564534ff2',
        '1/trace.json': '735a4a441d618f0eda523d2c0556c81c',
        'spans.json': 'ffebdd3cc226f03a27ed0271464292b8',
    },
    'fig1-attacks/vtx': {
        '0/containment.json': '7f75069d6dee8da26494262a16945ae8',
        '0/describe': 'a7a5cdc9b9a969a5e917741c38e289ed',
        '0/flight.json': '9f682169481404e4409fe5a46f18121f',
        '0/metrics': '027feb3fbd37abab7787f1e3b6aeb3b0',
        '0/metrics.prom': '027feb3fbd37abab7787f1e3b6aeb3b0',
        '0/profile.folded': '3f3d19d7cb9ff4d86e90392eaebe9634',
        '0/trace-summary.json': '661a738c93db1e0671ad3f97ed436b6b',
        '0/trace.json': 'eb8ff31b4668248092a77244062e6320',
        '1/containment.json': 'f5ffc543e88c11ea9542c15064f5e82b',
        '1/describe': '98ca8557ff939edb9e0a9f71dc401d8e',
        '1/flight.json': 'c5e1155b29deeade852399072f7ed56c',
        '1/metrics': 'b50be1aab02ad35a1200ae1b570911c4',
        '1/metrics.prom': 'b50be1aab02ad35a1200ae1b570911c4',
        '1/profile.folded': '300dee4e5bc582bdd06db673247f3601',
        '1/trace-summary.json': '40dfc7e8ecb5a45db5827ddfa0ab80b7',
        '1/trace.json': '4c3d37079ab33bcea7558a71f5cb09e6',
        'spans.json': 'ffebdd3cc226f03a27ed0271464292b8',
    },
    'fig1/lwc': {
        '0/containment.json': 'b6d560fade5eacec5213d473159cad5b',
        '0/describe': '82ac327bfa1e0cd36d3417bfcd3f1e66',
        '0/flight.json': '5320faaa4f3bc50b27ab8336236cccf6',
        '0/metrics': '8e14aa12c4c52a902b1a80c40b928695',
        '0/metrics.prom': '8e14aa12c4c52a902b1a80c40b928695',
        '0/profile.folded': '70881853aa10bf23a23e689de568ef7f',
        '0/trace-summary.json': '0d22fbcae9deaa1735fdf6abc3139ad3',
        '0/trace.json': 'e42bda20b5bdb9178d9f41157d683592',
        'spans.json': '016201a9cc2b352f61b8a723627eb343',
    },
    'fig1/mpk': {
        '0/containment.json': 'b6d560fade5eacec5213d473159cad5b',
        '0/describe': 'a29daf3e3de2ec1712a62068a8ef4025',
        '0/flight.json': '5320faaa4f3bc50b27ab8336236cccf6',
        '0/metrics': '60f7797e6c31aec3c0d362732ee07dc6',
        '0/metrics.prom': '60f7797e6c31aec3c0d362732ee07dc6',
        '0/profile.folded': '29bbe08f5f39dfab6d90556aa80101f3',
        '0/trace-summary.json': '48bdd46958b8c7f8be49454ccb6004cb',
        '0/trace.json': '6e5ffa465b964fbc25bedfe924c15f2b',
        'spans.json': '016201a9cc2b352f61b8a723627eb343',
    },
    'fig1/vtx': {
        '0/containment.json': 'b6d560fade5eacec5213d473159cad5b',
        '0/describe': '447a8e19e15c0d99ce88faa69f025b09',
        '0/flight.json': '5320faaa4f3bc50b27ab8336236cccf6',
        '0/metrics': 'd373f54c02ff149741241bc52b31b1cb',
        '0/metrics.prom': 'd373f54c02ff149741241bc52b31b1cb',
        '0/profile.folded': 'f5d4e6a567d0fe5b2c11d92977ec0f3d',
        '0/trace-summary.json': '5025a3b051571e063551b36618043736',
        '0/trace.json': '7c1f9ad4ea2df6fd295f85f67316b9c4',
        'spans.json': '016201a9cc2b352f61b8a723627eb343',
    },
    'loadtest/flight': {
        '0/containment.json': 'c551d25e6f6de966a1317f57569f15ad',
        '0/describe': '03e3413d55748b7ababd7c83ec668f45',
        '0/flight.json': '00ee97359918c7b1fd57c50c046bfeb1',
        '0/metrics': '54fd6fc007bcb0aca58a070a5dc0bb28',
        '0/metrics.prom': '54fd6fc007bcb0aca58a070a5dc0bb28',
        '0/profile.folded': '065b043fd5d05d49fbfdf89cf3c20c51',
        '0/trace-summary.json': '7a696890fb6d28f238101e2341ec5698',
        '0/trace.json': 'b98cc9c44d6df4d7a6e510b142e87d7d',
        'spans.json': '09005cf80d535bb46667b2ca3973ea37',
    },
    'loadtest/span-smoke': {
        '0/containment.json': '5305bcf89d89f70b8bade952c3cb514a',
        '0/describe': 'e9f6c486492761f9eb60baed92656f5b',
        '0/flight.json': '5320faaa4f3bc50b27ab8336236cccf6',
        '0/metrics': '5542a8ba90b498741dac692849a3562f',
        '0/metrics.prom': 'a20747fc782a9984a8abdfe2b2d4fd07',
        '0/profile.folded': '16c0464eaca48ed499d9fcad8cefd95f',
        '0/trace-summary.json': '5f4b704ecb4bf7af0e626e2d399fed89',
        '0/trace.json': '7c47e8588305188932afcca6b07f8520',
        '1/containment.json': 'e4c1f937574eb3a70245abf73484d3b3',
        '1/describe': 'b6ae223369adc44ac0201df0b3eebbc0',
        '1/flight.json': '5320faaa4f3bc50b27ab8336236cccf6',
        '1/metrics': '9d53e738fc0c4e5dd1f9a534d490ec86',
        '1/metrics.prom': '9890944179dc162fd04d757b62a7666d',
        '1/profile.folded': 'c6055430d44554aa2288f9413892f865',
        '1/trace-summary.json': 'a5f7fd09458ad08207b81106a3d77b91',
        '1/trace.json': 'fceee2d10efa509201cae9be3ee2bb08',
        'spans.json': 'bfbe539cd03d4814aa0cd85d0d866144',
    },
    'macro/lwc/jit': {
        '0/containment.json': '5c40097b95a8369c9a79b6edcd7de343',
        '0/describe': '14577b0bfedf2046304e92352602bf8a',
        '0/flight.json': '8fd0b5bbee46b6777c0352aaad0ca33f',
        '0/metrics': '06ea464bbe902eba438267b62162a59c',
        '0/metrics.prom': '06ea464bbe902eba438267b62162a59c',
        '0/profile.folded': 'eb5b8198fe7618787cf49dce49b77d7d',
        '0/trace-summary.json': 'cc8b11929a5f5eb453202b39595c7b31',
        '0/trace.json': '262ce739846150e4f545868b0a5a2227',
        'spans.json': '016201a9cc2b352f61b8a723627eb343',
    },
    'macro/lwc/nojit': {
        '0/containment.json': '5c40097b95a8369c9a79b6edcd7de343',
        '0/describe': '14577b0bfedf2046304e92352602bf8a',
        '0/flight.json': '8fd0b5bbee46b6777c0352aaad0ca33f',
        '0/metrics': '06ea464bbe902eba438267b62162a59c',
        '0/metrics.prom': '06ea464bbe902eba438267b62162a59c',
        '0/profile.folded': 'eb5b8198fe7618787cf49dce49b77d7d',
        '0/trace-summary.json': 'cc8b11929a5f5eb453202b39595c7b31',
        '0/trace.json': '262ce739846150e4f545868b0a5a2227',
        'spans.json': '016201a9cc2b352f61b8a723627eb343',
    },
    'macro/mpk/jit': {
        '0/containment.json': 'a4fd32091bfa45801047cdceedd5bcf8',
        '0/describe': '8209d963ab432ed06b10840d95634cba',
        '0/flight.json': 'fc22d1896c9e6db45f681aa3da6e2000',
        '0/metrics': '90fc3f58338c5a92240a83ee8d7830a0',
        '0/metrics.prom': '90fc3f58338c5a92240a83ee8d7830a0',
        '0/profile.folded': '3c6e20e4677f835b9509a41b717641e1',
        '0/trace-summary.json': 'a3a8a5222999cfda62368c4145f8f83b',
        '0/trace.json': 'b02b0033e5bafdb9ee041bbc79ba11a0',
        'spans.json': '016201a9cc2b352f61b8a723627eb343',
    },
    'macro/mpk/nojit': {
        '0/containment.json': 'a4fd32091bfa45801047cdceedd5bcf8',
        '0/describe': '8209d963ab432ed06b10840d95634cba',
        '0/flight.json': 'fc22d1896c9e6db45f681aa3da6e2000',
        '0/metrics': '90fc3f58338c5a92240a83ee8d7830a0',
        '0/metrics.prom': '90fc3f58338c5a92240a83ee8d7830a0',
        '0/profile.folded': '3c6e20e4677f835b9509a41b717641e1',
        '0/trace-summary.json': 'a3a8a5222999cfda62368c4145f8f83b',
        '0/trace.json': 'b02b0033e5bafdb9ee041bbc79ba11a0',
        'spans.json': '016201a9cc2b352f61b8a723627eb343',
    },
    'macro/vtx/jit': {
        '0/containment.json': '7713af4014bfd1560ad487e8deae8ac5',
        '0/describe': 'b3bef6ea7ef56bfd5a4fc1ac38f9650e',
        '0/flight.json': '7afb3bf79943fc9450c71d5bc3215f6c',
        '0/metrics': '6e3f3abc3746ed249ee55ed2a10c23e2',
        '0/metrics.prom': '6e3f3abc3746ed249ee55ed2a10c23e2',
        '0/profile.folded': '565b7d8cf42df196366f2829b0a87edd',
        '0/trace-summary.json': 'ddd0a2c1ecb82c95479d63875cefddb8',
        '0/trace.json': 'c94727c6ce9ca66fd54779dc8bb71886',
        'spans.json': '016201a9cc2b352f61b8a723627eb343',
    },
    'macro/vtx/nojit': {
        '0/containment.json': '7713af4014bfd1560ad487e8deae8ac5',
        '0/describe': 'b3bef6ea7ef56bfd5a4fc1ac38f9650e',
        '0/flight.json': '7afb3bf79943fc9450c71d5bc3215f6c',
        '0/metrics': '6e3f3abc3746ed249ee55ed2a10c23e2',
        '0/metrics.prom': '6e3f3abc3746ed249ee55ed2a10c23e2',
        '0/profile.folded': '565b7d8cf42df196366f2829b0a87edd',
        '0/trace-summary.json': 'ddd0a2c1ecb82c95479d63875cefddb8',
        '0/trace.json': 'c94727c6ce9ca66fd54779dc8bb71886',
        'spans.json': '016201a9cc2b352f61b8a723627eb343',
    },
    'quarantined-resume/lwc': {
        '0/containment.json': '53276089ab6da0c893763aaa2b966ba0',
        '0/describe': '07cdfdf9f9a2e47f53a711587a59c53f',
        '0/flight.json': '0430433bcd4f343621707b79ad060d08',
        '0/metrics': '56140ddc4f0174a625760d9b6bf4a8b6',
        '0/metrics.prom': '56140ddc4f0174a625760d9b6bf4a8b6',
        '0/profile.folded': '55e24681a28291e4ffe282cc9460bd8e',
        '0/trace-summary.json': '888d01d9f7a15fb002d3681d43b805d4',
        '0/trace.json': 'd6ebf9f202c50764a06fb1b1b03f1fa8',
        'spans.json': '016201a9cc2b352f61b8a723627eb343',
    },
    'quarantined-resume/mpk': {
        '0/containment.json': 'f56eac76e2054c3cfad8722d58e4a583',
        '0/describe': 'e613703634239886f6a26639c1ee0d32',
        '0/flight.json': 'c9c7f1c92c0cc854519a0305ea7da6ca',
        '0/metrics': '8ef00548d20c908202b252712cd9e2ab',
        '0/metrics.prom': '8ef00548d20c908202b252712cd9e2ab',
        '0/profile.folded': 'ba77d2a8231bd3e50dc8a0365dabe3d7',
        '0/trace-summary.json': '5323cb2ed81a32609d2a7b79bdc81ba9',
        '0/trace.json': 'd9e09d3036bf483e3b582c4c816c4664',
        'spans.json': '016201a9cc2b352f61b8a723627eb343',
    },
    'quarantined-resume/vtx': {
        '0/containment.json': 'fdfd54874372964d3bf34e822c02aff9',
        '0/describe': 'aa084dec4faa100078c8ae04ef9214c8',
        '0/flight.json': '8babeca4474faaca1586f6df4ee03b5d',
        '0/metrics': '0adc426239d1c4af4db7acd3cfdc2a33',
        '0/metrics.prom': '0adc426239d1c4af4db7acd3cfdc2a33',
        '0/profile.folded': '8f5632523ba96dafcb2958aba6986c61',
        '0/trace-summary.json': '8127b248ef7a895be55bebd0cb2c7687',
        '0/trace.json': 'ca8de048c07ea0af35cbd8561ec08c33',
        'spans.json': '016201a9cc2b352f61b8a723627eb343',
    },
    'tenants': {
        '0/containment.json': '0b70d8bc72ca1150eed644fd77c88bb0',
        '0/describe': '7b7339d02dc7a86d621d42a3851d3089',
        '0/flight.json': '3a2c3bfe6a0a4e46e5cbf032cbafde6c',
        '0/metrics': 'e9392d68083622f67a9106a50d7f0eb2',
        '0/metrics.prom': '93552e17fe7bf67bf572120d8e14be65',
        '0/profile.folded': 'ec255972b520f0c3ca6b9eb715decd34',
        '0/trace-summary.json': 'e7f476b039488bb7422829681d56c9c8',
        '0/trace.json': '0566bc708a3d2661db9a83f0d7faa99c',
        'spans.json': '709559f101312d5f9481e0207827e2bb',
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
            found, _ = digests(name, pathlib.Path(tmpdir) / name)
            print(f"    {name!r}: {{")
            for key, value in sorted(found.items()):
                print(f"        {key!r}: {value!r},")
            print("    },")

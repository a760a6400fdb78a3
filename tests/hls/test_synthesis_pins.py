"""Pinned synthesis artifacts, end to end up to the feature matrix.

SHA-256 digests of everything one synthesis hands downstream, for the
seven paper variants and four sampled directive configurations per
paper design, all at scale 1.0:

* ``schedule`` — per function and operation: start, end and arrival,
  plus the state count, latency and critical delay;
* ``binding`` — every operation's unit, each unit's opcode, width,
  spec and members, and the multiplexers;
* ``report`` — the per-function reports, memory maps and FSMs;
* ``graph`` — every array of the dependency graph and its maps;
* ``snapshot`` — every array of the feature snapshot;
* ``features`` — the extracted node ids and feature matrix.

Values are read through the public accessors and normalized to plain
Python numbers (arrays by dtype, shape and bytes), so the digests pin
the values, not how they are stored.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.explore.space import DirectiveSpace
from repro.features.extract import FeatureExtractor
from repro.fpga import xc7z020
from repro.graph import build_dependency_graph, compile_snapshot
from repro.hls import synthesize
from repro.kernels.combos import build_combined

PAPER_VARIANTS = (
    ("face_detection", "baseline"),
    ("face_detection", "no_directives"),
    ("face_detection", "not_inline"),
    ("face_detection", "replicate"),
    ("digit_spam", "baseline"),
    ("bnn_render_flow", "baseline"),
    ("bnn_render_flow", "no_directives"),
)
SAMPLED = (("face_detection", 4), ("digit_spam", 4), ("bnn_render_flow", 4))
SAMPLE_SEED = 23

SNAPSHOT_ARRAYS = (
    "resources", "delay_ns", "latency_cycles", "edge_dt", "fop_res",
    "fop_vec", "fop_clocks", "fop_latency", "fop_mem", "fop_mux",
    "ftop_res", "ftop_clocks", "ftop_latency", "ftop_mem", "ftop_mux",
)


def _plain(x):
    """``x`` with NumPy scalars as Python numbers and dataclasses as
    dicts, recursively; arrays become (dtype, shape, sha256)."""
    if isinstance(x, np.ndarray):
        x = np.ascontiguousarray(x)
        return (x.dtype.str, x.shape, hashlib.sha256(x.tobytes()).hexdigest())
    if isinstance(x, np.generic):
        return x.item()
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {f.name: _plain(getattr(x, f.name))
                for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        return [(_plain(k), _plain(v)) for k, v in x.items()]
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


def _digest(obj) -> str:
    return hashlib.sha256(repr(_plain(obj)).encode()).hexdigest()


def _schedule_view(hls):
    out = []
    for name, func in hls.module.functions.items():
        sched = hls.schedule.for_function(name)
        ops = [(op.uid, int(sched.start_of(op.uid)),
                int(sched.end_of(op.uid)),
                float(sched.arrival_of(op.uid)))
               for op in func.operations]
        out.append((name, ops, int(sched.n_states),
                    int(sched.latency_cycles),
                    float(sched.critical_delay_ns)))
    return out


def _binding_view(hls):
    out = []
    for name in hls.module.functions:
        b = hls.bindings[name]
        units = [(u.fu_id, u.opcode, int(u.width), u.spec, list(u.op_uids))
                 for u in b.units]
        fu_of_op = sorted((int(k), int(v)) for k, v in b.fu_of_op.items())
        out.append((name, fu_of_op, units, list(b.muxes)))
    return out


def _report_view(hls):
    return [(name, hls.reports[name], hls.memory_maps[name], hls.fsms[name])
            for name in hls.module.functions]


def _graph_view(graph):
    arrays = {name: value for name, value in vars(graph).items()
              if isinstance(value, np.ndarray)}
    return (graph.n, sorted(arrays.items()), list(graph.func_names),
            sorted(graph.row_of.items()), sorted(graph.node_of_op.items()))


def _snapshot_view(snap):
    return [(name, getattr(snap, name)) for name in SNAPSHOT_ARRAYS]


def digests(hls) -> dict[str, str]:
    graph = build_dependency_graph(hls)
    snap = compile_snapshot(graph, hls)
    nodes, X = FeatureExtractor(hls, graph, xc7z020()).extract_all()
    return {
        "schedule": _digest(_schedule_view(hls)),
        "binding": _digest(_binding_view(hls)),
        "report": _digest(_report_view(hls)),
        "graph": _digest(_graph_view(graph)),
        "snapshot": _digest(_snapshot_view(snap)),
        "features": _digest((list(nodes), X)),
    }


def cases():
    out = [f"{combo}/{variant}" for combo, variant in PAPER_VARIANTS]
    for combo, n in SAMPLED:
        out += [f"{combo}/sample{i}" for i in range(n)]
    return out


def synthesize_case(case):
    combo, variant = case.split("/")
    if not variant.startswith("sample"):
        design = build_combined(combo, scale=1.0, variant=variant)
        return synthesize(design.module, design.directives)
    design = build_combined(combo, scale=1.0)
    n = dict(SAMPLED)[combo]
    space = DirectiveSpace.around(design)
    config = space.sample(n, seed=SAMPLE_SEED)[int(variant[len("sample"):])]
    return synthesize(design.module, space.apply(config, design.directives))


PINS = {
    "face_detection/baseline": {
        "schedule":
            "3ed52768e2f82f791cbbb6c1742511efa881f446afd8dbe15077ada398d8333a",
        "binding":
            "1c8082bb5ea3ff423515311d49199a2b59b0462b4f6420c6ec70e8ede0543194",
        "report":
            "e0ce3c29527bc1b5d3a61ccd59fa4536b0e641d598078044ada4f3b5ee50bf17",
        "graph":
            "f38ad2434de8e1dc4d4bc4f7d4739ff498a02e653b4b111cc2cbd3386d9cf973",
        "snapshot":
            "e67caa20efe3a5bebbce499e5ba65ef317db4b1b2aff52c58467879352758bec",
        "features":
            "2bf0ddaa7db5dd01358971498f25c325cfd799290d56b5dff45b8b8c2ff4fa8e",
    },
    "face_detection/no_directives": {
        "schedule":
            "b93fc4c89433db94b06f1a572efb51a8cc8fadd11114ea3e3de0c8ee7a352e11",
        "binding":
            "a4a2668a50c8357816c58e16110a98ff091fb27af0cdd16a61a6412a48136e55",
        "report":
            "8e2c93ac2f3db18cb42ec21984ec00341a72df00b096a9915ff77379349eb76e",
        "graph":
            "900bdb2a51a4f18fec13854189744acc7a1fbf6a1c2cd6b8251b155c150da110",
        "snapshot":
            "46644f9d6bbbda2a57436e1c3255cb964def0f9431d1bef840ac3aa0f3dea2e2",
        "features":
            "ef3c9f9f49c0c35347e16537c981d9c3e9ab8c678b89c5f6d6ae1d7d6a336f77",
    },
    "face_detection/not_inline": {
        "schedule":
            "924bf0ec7e760496afa871b2ff4938e4415c77a38a0420d0287fea08e58b6583",
        "binding":
            "64c750ff828d5bd7ef9589066a8db9c6e5d564c9c060982d63b1b7bcf49ba373",
        "report":
            "3193482b87e462190bba94f0444ef5572e7ebc43822c5e99a28868f536ea51df",
        "graph":
            "abbc27650aa9213742340db6e58efeef58941c9f50630d0d63582356ee527f04",
        "snapshot":
            "ceaa0baa6d3887b3ab51c1ad75d9531b2185e0fd8df17b644cf12b138d8dccf3",
        "features":
            "1161742518ef06fb326c7599b470016670e1cb41508e8c75458adb47afdfa0b5",
    },
    "face_detection/replicate": {
        "schedule":
            "4431f889145624b1245cbb55186608385c3d735455a64f0364e1aae41b8d2ab3",
        "binding":
            "fee97cc83421bdce265a0926d43ebb5f6ee117d58d961aa2225e49a4837925ba",
        "report":
            "a056f5596ab5913c36a0a8d4abf22064ef55490b5979778c3b7940ef0554ba37",
        "graph":
            "2e8f55211b29393ad330b7f396ae1a49e3a7a2b9c1bd13cfe7b7f2cd79cad2a8",
        "snapshot":
            "7ac604022da4c9b5b73e1fc3e00269dc2f770e230c87de529e1b217849484245",
        "features":
            "0dd48302c9f72397e537ce64ab68e94513b7fe4695d0a5ad9c4ed3f054e090c3",
    },
    "digit_spam/baseline": {
        "schedule":
            "bfdbb8148ea75bf59d4d13fb4d28bea93eef1968b43f227bb4c98a64e7172cba",
        "binding":
            "d5a477fbb10d2a0b906c7da10fb1b18a4ea71b47dc63b4dff0a2cae670ba139b",
        "report":
            "2abbd9dfc878ad1d979908f2582e38b50c2b4cc0825cd913d519ed7714a4ff59",
        "graph":
            "dda3a9154e518ccb394c6372308f48e1cb6b9ea370a58dc5b473a2e0c2377b9c",
        "snapshot":
            "f1cd787e14d3e078ef13d2ea6bc9b72a53a7956429bc41ca85561359c95f2068",
        "features":
            "5bb973b04d66b7f0f453bddbc2df1d08bc42f098369345291fe787043adabf3b",
    },
    "bnn_render_flow/baseline": {
        "schedule":
            "c134169d7a1d65e3cdadffb0356ab17f6cef4a0aa004787e8a26a053e1a403e4",
        "binding":
            "d1f7c6092d55b5c6b31a1a63a2589271543818ae44a1d23be7189d115009b100",
        "report":
            "307bd0e3d13d1dc7423432e2426f4bb18b0b170857026004ef319f9878af488b",
        "graph":
            "863fe3e742f661014cf1f1a9f827d78e802c92eaa0a837d2c8051e41120d4caf",
        "snapshot":
            "203aeaba2ac88ef9d01007d0f60b35527e2933dbb0fc239c4f8ee192e5363d0c",
        "features":
            "dc59475d158b5e3ba76e9290b447d22e7e09b3139db4694f84a4405da5fc0c36",
    },
    "bnn_render_flow/no_directives": {
        "schedule":
            "0b97d4c7dd5ba5eb2dc47ac04a34e6c0ee8df00d12ce85a5b67697c4553cc8c7",
        "binding":
            "bb46d1a482c183b5246c6e578986d5b22085d9eb0d6227fc27bf704081aa13f4",
        "report":
            "9242e570efadc174f629313d401b5d0da3e78154ebed3783cf7f537e3611f157",
        "graph":
            "e3a7dec973979b54ca87208c079283428ef81a506ff4c44eacf0140193f9bcb0",
        "snapshot":
            "32f3b4141940856ae236740df7876418ff0a63901a61a9038dd4eb4604054a51",
        "features":
            "7167e5c58113fb51e92dc55a28caf202cffffdde6aec4df403e05437fb7d2625",
    },
    "face_detection/sample0": {
        "schedule":
            "f88115b91c3dc3a8d0c74f11b6c746d99e8e4a668cff17e040d7e2d6a83c7c00",
        "binding":
            "120bba0d7172e602aadda94d61b10643e92ffaa99c6e8cfbce8743613462f406",
        "report":
            "649003e6d5b9c24dc327eaf1cc37a0bc1ec55f6dec07ff4fa50edde7447709d2",
        "graph":
            "1713489c63ff33982ff4690d1cac8791fd509c973174d7552f63249bf873b697",
        "snapshot":
            "930143718911672dfbaa389bec8d0b32f3c3a512ccdda31d3062be84b7984a9b",
        "features":
            "76cc7aa1b7b9bf7177acdd9d5a6c5a53cfe6627a6817731f278f6f788801eb72",
    },
    "face_detection/sample1": {
        "schedule":
            "b4c769e38e95c2ec863c42fed7ebd2b38feb0ac0f53af1d7edc380e966096731",
        "binding":
            "fbe82745fd4d832b91e693b8b9a2f1fc8c0f2ccc35dd745f4b7a0a3b924e864c",
        "report":
            "f02b8b5d07e003dc85f6452f78a6631ea84155365b3c61d278158228d4c9c73c",
        "graph":
            "97f40212da132ef0de2ad281fcc719f55f8adb1b3945c1d5dc96815a4673b899",
        "snapshot":
            "0a8f2dfc5d2448ddfe7ba4ea2bbfe1da24e46286f6315ba4b1bee6fd0e4e5f5c",
        "features":
            "86a6c95ed88c97495aba351dd827618264e57e495bb87cbe22ea6b63faaaa419",
    },
    "face_detection/sample2": {
        "schedule":
            "6f2fd3ba44923b96a7fe05690bddb6e2301471d762bd4e45756a790b0bad38d2",
        "binding":
            "3882a6e6f162d1aa5af940a1d54e09b15a240644655bd6b0c0a2f51801d44764",
        "report":
            "b6c4cd1f0302dcbf6f2e4942f2ffdb19f8805607be73f88518dc81cdac52582b",
        "graph":
            "d8b9b4fa43eb308e443da4b9f205b3a6ec3ccbb2aef52479f2692bdcf5490a8a",
        "snapshot":
            "953b5125902c27d92a1168fa8cdfa65b7c2786b72b20b9c7ff5546303c77a0a6",
        "features":
            "b97b9a5ae04af6ce2fc0cde74f30a27d78bf72211db5378b034ea033d7ee9272",
    },
    "face_detection/sample3": {
        "schedule":
            "148283c52a04532ee4e3089b16810580e67153b85ed5fa6558fec5572318acb3",
        "binding":
            "4f9bd3583b546861b85cd7fd7a83ce9510715cdbc82352cba237a4bbc77cf049",
        "report":
            "244db7ffe5484f401c4b45685d1ed01518e7c78049345f77e10de0d24ce7b4c8",
        "graph":
            "c3b03cb8079ce3e9bc8e50d2c397a4312deadd4b3c5941029aaa32721741825c",
        "snapshot":
            "fc8e97a3e9d04785768cde91b0d1c4d101607005688bbb9fbd598937716304c5",
        "features":
            "0f22c0d38df7b930f965f8e23368cbda0199fe1c0e63c819b969ef6ba0d4f6ce",
    },
    "digit_spam/sample0": {
        "schedule":
            "80b273232376c18e7318539fef8302e39556bec857187f4b9f50e5b241403780",
        "binding":
            "0a2dd546009c3ac0841d00aac44fa8a545f22a4ca6095d9851ffcc34f4d2c51d",
        "report":
            "31e267c531539c7c271ae1e955f061860cd33ae0975d3b8df04675d38e91fea9",
        "graph":
            "5d52969e0f922065ac523f9d5291c01b34be1cd612ccf8a79e377b4f17df660b",
        "snapshot":
            "d29129101c067a8df3beb140aa819d4a862693c3c5f588f56c5f02319f7c9fff",
        "features":
            "3a7bf0fa79c37c9fd4d84c21a9bc64c6baee72aafe8e67fccbe50b4a67454b06",
    },
    "digit_spam/sample1": {
        "schedule":
            "38a2e6c9e7888c0830001c55a65a89d2795321cf8283b1d4aa7914dee49bb244",
        "binding":
            "8c3827e1ef25048ff0980e9675857539884f3d1ca51678dc43bdc7066faa8130",
        "report":
            "ba63daa9fe02539ee808779a483c0ac51ad4bc7cc0cf138b166da329b6fe4077",
        "graph":
            "a6b4f4d7cf0a06c65569dd1aaedcc86f5c90abfd8117bead2bf90c184adb83d0",
        "snapshot":
            "0e050f583a6f419c02ded37bc800843533d37d5e0c7953b13f371e8e3d5bd09b",
        "features":
            "c18cc993d10e231c965242c77492816f037d7ced41efe52ef03f9c3a8cf75f1f",
    },
    "digit_spam/sample2": {
        "schedule":
            "3c1badd3ebbd38c80f088c945d2432b1499b5532e883eb0b1acf1ee1f2aa7a5c",
        "binding":
            "499f90a5edf8536d9a33bdd2653bb510a9bb5a2491661d78f58526e2b93de62f",
        "report":
            "ad6e315ad607b76a55f833f19b8b5b90e70c97ec9b202555bfbb96a966caa0bd",
        "graph":
            "8af463faab82ee8f18a729d279420dda1f8bdfda427fb83c690d08d67f8e2205",
        "snapshot":
            "f60b45ad50f9acef035b41c1b7a91950f07bbd69e47a9f46cb4e2c9fee33ef5d",
        "features":
            "66fb213982d0052f415cd761cff830352b48854b77626612bc588c397aa745aa",
    },
    "digit_spam/sample3": {
        "schedule":
            "3ac72fa483c69dad18beecde30070160f537152a8b1b1a8dc3bd5686f3283086",
        "binding":
            "4e636246c96f57e15ec77903107c68d04ff85d3337c42bcdd2926f23b870ac74",
        "report":
            "cab8e936a0a5ab043465b8d279e7e48a7b74c012630708ba2afd9e02d28a5c31",
        "graph":
            "513b52bb6d3d65c3fd9654feaba8315654c4a60637deb09a24fb8211aeb152bc",
        "snapshot":
            "65296f91c598a4a9cdda0bcd20b7e3a68c1ea27c360003861ec004887d621f99",
        "features":
            "1f812dbc4488727fb355aa85258571f792a8bf2711622b40e1a3199356859119",
    },
    "bnn_render_flow/sample0": {
        "schedule":
            "3511f22042f70e38057f15bfc0839db990c7dc312466dc9eab1b7cfef48295cb",
        "binding":
            "ea123306e01963750e8cf7ed541a91b690ae3ed947933f85af05e0df281f96a8",
        "report":
            "53e9d302601b6f4ebe203f42fef96de1bae7a7d6e5ab931a347c7228db4acc9e",
        "graph":
            "6df10dd54b395c81d9a5adc129e8c5b0c2e948b87854587f9ed3e9b044ce4e6f",
        "snapshot":
            "611d7b81f2dccea900b7a49ca770a1681a900b0bcd6e7ccf481e803fe3aa3329",
        "features":
            "c7e6035b70c6838abff6b16caf8a55c5890667dc30e42bcc0c1b106eb58dbbac",
    },
    "bnn_render_flow/sample1": {
        "schedule":
            "01893ba4b3b3b0e00c7f05fa43f0f89a32e2c109e8bc44da4ab27c61a7bd2ae5",
        "binding":
            "6e415f8e68a10a5b7819816446579031839ec328b2a27c51c1f2cd370c15725b",
        "report":
            "c4dd09c61a6b3c8e455db1d2953a3ac7290fcebbc60c8d2516cfb6eda6f936d0",
        "graph":
            "6749aeced2dbfe5f802dda21b0f811e6fb4c03407698a0f85b6eb8becad40069",
        "snapshot":
            "8beea649618e9d62b09a32b7a5d47759f3855103813068e7fa5922093f31630b",
        "features":
            "3525cab6b0da9ca2c56ee94e3885c755b4e9f0a7777ba1dbd8b2c762d1d1b364",
    },
    "bnn_render_flow/sample2": {
        "schedule":
            "ff0cd6a0c6abe6503808902ac97ad47c4fd5a207f095750ebc0097dfcd612b1b",
        "binding":
            "c6824922438ec79b1da3a5423e12db2b9cdabca60f003ad44a1cc771fcb8709e",
        "report":
            "c55a5bbc1118b0a1de9b446a43cafcb651b9e1688c7783fcf2e2a6a178a4a30e",
        "graph":
            "23287f21629b259220bc8675d01e00a4eeb62b1611cb4547e7b690a7221f7829",
        "snapshot":
            "7e37643db8c6df5fc71a9ca7850ad6119d9b5959a2ffd7397a7f2a57f02ccf49",
        "features":
            "84771aa9fd21fffbe435dc132bfcf8b7c61d6885dbab6b79798ebc9be71e8c18",
    },
    "bnn_render_flow/sample3": {
        "schedule":
            "1feeb9de0ec0f81b661c489b58f36faba2dce6c0ec8ee5ca41788530307200f1",
        "binding":
            "cc67481dd3178ece20ce1a2555bb007c8384db13987f6fb3b0cc18b8004107df",
        "report":
            "90fc41bf1ca7d828e477381026554cadf9db9b62ba0a4ea820810ba375ee5d72",
        "graph":
            "bcde63f51dd6c2e23fdbe8168be70b53ac31929d0fd389cf3a263719e1d76cd3",
        "snapshot":
            "6b28680ea9cb8572fa34e89dd89196cea5b839d027238ba0254076e0982b1a99",
        "features":
            "026ea6eaa459de0e340c9be2459340e00a1923431aa2c74e5e345f9da441575e",
    },
}


@pytest.mark.parametrize("case", cases())
def test_synthesis_artifacts_are_pinned(case):
    assert digests(synthesize_case(case)) == PINS[case]

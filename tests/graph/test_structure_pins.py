"""Pinned dependency-graph arrays.

SHA-256 digests of every structure array the graph build produces, for
the seven paper variants at scale 0.3, one unmerged build and the
hand-built modules of ``test_depgraph.py``.  They were recorded from the
networkx build the array build replaced: node ids, node order and the
per-source edge order (which every float sum in feature extraction
follows) must not move, not even by one redirected edge.
"""

import hashlib

import numpy as np
import pytest

from repro.graph import build_dependency_graph
from repro.hls import synthesize
from repro.ir.operation import reset_op_uids
from repro.kernels.combos import build_combined
from tests.conftest import build_tiny_module
from tests.graph.test_depgraph import shared_mul_chain, simple_graph

ARRAYS = ('node_ids', 'e_src', 'e_dst', 'e_w', 'rep_uid', 'bitwidth', 'opcode_id', 'func_id', 'is_port', 'und_indptr', 'und_nbr')

STRUCTURE_PINS = {
    "face_detection/baseline": {
        "node_ids": "9347f6e2335fa32163195eadd2aa8380d9799edc19d532b15a1fe158b9021dc7",
        "e_src": "77a5fa661c9761d11265026a5f62f046892ce4834e17ad1bf9cb82686c70a473",
        "e_dst": "6090620475c1bb325ea930b1b963dee1bc0fa018a3ac4f01f3c2a2b6be64ea2c",
        "e_w": "fca289ae7b942f2d7ec82a1830ce3c47975602a07b80aa5a3ea484a20d2ba007",
        "rep_uid": "d569a2722955385a2e70ebbff1dec2e5652d5c13d7b0e7f92c089a6a45cac292",
        "bitwidth": "9e3a53a38dd264c6ac033c29a36c58f8b4d04614da8626306cb76893e42112ff",
        "opcode_id": "8ce2a7c90f19d0fd494dcfaa543e1a1f6e67edbfdca8d4ff520f908e748bd3f6",
        "func_id": "8036ca59129074eb2f8c0678e91f52b83f87b42333302af54d9213addf92f614",
        "is_port": "93df7766b07dbb635c54264ff740e7e02b114749fc030d4b995cbe91d89b8957",
        "und_indptr": "e6b6997f3e55698d61c64a1d8e373396da485a8a17c1c5ebdcb4a278e0bb8b70",
        "und_nbr": "7dc1a82dd5cb80c5ae2175a5f975de770b915a5a49e84cc91dbd99a331db31bd",
    },
    "face_detection/no_directives": {
        "node_ids": "3d3589949a532cf5648a9d9b39fcf3791569c5e230cdf0c26f65d579c0616f3a",
        "e_src": "9fafdc12cbb4c114dcec58a8c0eea1abd0ea2c867bd7cd0e49b5b9079a11737e",
        "e_dst": "5eb6ce01c65c30547406ab62d6029a406a6a18374ac585d0fc76e62daaf0d250",
        "e_w": "4f4bd51d99392cbb5f7d1e484abd29021e98c5b775f722032ae6a04c5e406195",
        "rep_uid": "ee7aa29de88fb70e1159b296be825a8d0e37fee9d3b9388f037d011bac0c2c2d",
        "bitwidth": "a793d1914d8ccbd532adc76bed9bd2ee4de7daa238d601a69e143dd32072473e",
        "opcode_id": "540a2ca7d579b9b2f14b03a76590d2d8631fa9f12a520d74d99f038a6c62f338",
        "func_id": "9762e65117dfd90a72e5a730c0a6ce29643a2966ad669ae40b694bf6b6e636b8",
        "is_port": "fd3b0b6d8c90eb4dd4354936458bb6a46db63b241931af225295bb67af0dcc4f",
        "und_indptr": "6503f35cb94726e5d69e22f63f7095fc15eefbf1a01f594a851ddc81275a8b2f",
        "und_nbr": "4947bf23c3fe491762f3958cb83ead4085d513f2dcc3163f9ac4322fc99dd803",
    },
    "face_detection/not_inline": {
        "node_ids": "0ea39ec44c224a29b2fe93de75353d93f97804b1e33609405f460109ca72afa5",
        "e_src": "3a6e2c0509f3bf9b17aabe1c16cee2f86864b0f6752a4d137ce84c5031bcb5b9",
        "e_dst": "60eee7c088123765535035897c301b54f0a1dfbdc0436e15b1c787f16fdf20aa",
        "e_w": "c4e5636eddf2770b6a12d3657694d21749329741f51bbf2ee470eec43753de57",
        "rep_uid": "d126d001155ce4fff0987d553f1a0286954be3957ab8b5cc5ea83b0445c45fac",
        "bitwidth": "acd75e3e01caf623cba16778d95e25b66c57fd4feebb53d182a76749cd8f0b18",
        "opcode_id": "0452cd12a993a7a4b8b623d39abc940227342de22af636bf6cea4603eb7f68f4",
        "func_id": "3ab0b35038617c1a96adea0d0d5ed4d37609f3179cb106b8d0cb0728906a1d1f",
        "is_port": "c2f362db8aa5286f7d7347f02014e26bfae2d101e8315de4f0ee3a2780d95289",
        "und_indptr": "89bc23ce0b776b10bee238f63a8d1efd816303419a26458572bfe46ee6e0b950",
        "und_nbr": "be4454b880cd20c106047f768c488092a764c4c3dfc253db85b864fac9afc3db",
    },
    "face_detection/replicate": {
        "node_ids": "2b35f3e3c93ea6ec9352291367c14860710ba44dcb652c062ea4e6a19a2a93b1",
        "e_src": "61421428385fa4ff45889f095ea6f2c1aff11dcefbb1105cb83f992762edbbbc",
        "e_dst": "e16eecd805be3d4f1cbbe801f6eeea10e93233eb9be5cadcf851157de4852c76",
        "e_w": "0960433202b307854c6d6c1fed610faabf5d55428bebfdfa3aac59e99c8c2cda",
        "rep_uid": "0d59bfb9eb07c06b98723691058b979835f2878728cd2fc613b5857d448d9e3c",
        "bitwidth": "91a56f28dff493c43617e07433ecb2583802ff0b04631f936726d6f688472a89",
        "opcode_id": "ad3d235184e6cb573b7b46492aa6f95fe7516c21cfea92beb5477f4f92fd4451",
        "func_id": "0a771f9ba616f7cb41031bc883143d108ed1ed927b91d4d2d895d5fd055db615",
        "is_port": "5ff119d8a8c090a4b970f76da5f2ac9cf880fce8ee50ecced15e442bfa7ad84e",
        "und_indptr": "ae0b6a3c465849059efde043b9d7ea002f8ca1447f96d69581c658deaadfa472",
        "und_nbr": "5d22480bd7232c81439d5833256119d9bf5a6e23ada953b81324a26b79b1086b",
    },
    "digit_spam/baseline": {
        "node_ids": "a16be57b90daf3482e86814afe2a3a8090995243508d267e789543f4f18e0acd",
        "e_src": "3a862299f61119af5378a829aeb42238d28a17926a0eeeb2b1b2881fffc48927",
        "e_dst": "542ff5bfbde8b42deecc5617118f86261f51d2499e0208a4ca025050ed0cb112",
        "e_w": "3ca456f6b35f103103afa1c3522043e6f7d01659f076dd0689ae8d6c4407a1e7",
        "rep_uid": "93ff20fbb5c65501ab35fa2ede4f40e6c8dbdfa798dd0e6cc5a47d949a05c434",
        "bitwidth": "b986494f5fefc27846f0dc59f8e2a9ccd5b1b8b58a7733a9b85d6d548530cdfa",
        "opcode_id": "690d76aef242d09b7490c6515e565555196e2693a445a6a88aff40f86c2be677",
        "func_id": "6a25c190e5e886ad3c2caf7942831ddb0573af9b70a68021fe288624b9f03ab3",
        "is_port": "a67a2fa77ac99a1641c04d7db8d853c6885f8587694a15d50395b1e02794b28e",
        "und_indptr": "8cb36a17b54a0a7b71504894eb3b346cd09e920b3cbcd2dbaef7d541355baa45",
        "und_nbr": "e93196c11f7dfb50f3849e0c8751458f97f06416ffc85d4235de1059cd9271f7",
    },
    "bnn_render_flow/baseline": {
        "node_ids": "97db44cf81ad5ef84792a6aecb3f0400e3c665de3fe57cbfd1586459cd18a7ab",
        "e_src": "9fc0ad9cabeb540a0b1306767df342648002087d829b5ba7a422873904ea59d7",
        "e_dst": "a982dcd4e0c402bba8908337a95f86120f3f196aec1b0992efbdf48ce1d330f6",
        "e_w": "6c4a42a9b5ff8d2e1c4da9fb8dbece16a192c768ed3cb1b4803113069026cd99",
        "rep_uid": "65a40db4bf7504efe374b6671fb9cd69c02b765310b84318ba16b2e9fafc57ba",
        "bitwidth": "71ea153ee43765827c69101971fdded7cdcdf5db9d047db5d27082998c880214",
        "opcode_id": "16b92920569471ee20fa8fd705fb22dc0c3e26acb049fd613ad2f1485c61e2e0",
        "func_id": "a3be80cf8775e194e9b6b881242e94e7532de1d1a29c93d8692eb2f0126cff39",
        "is_port": "2b12781845992f53c8e43660fc1113b7b7c3aa58f159b0930e6cafd2eb874cc6",
        "und_indptr": "84936c528180dd8c6b73c9164604152dc174cf973bc39c2920da9dee8f120c13",
        "und_nbr": "cc211edb6cf39564246ddc29bc63de2586ea09b126e9f7a74b8ebfc8f51dd607",
    },
    "bnn_render_flow/no_directives": {
        "node_ids": "d1fadaa1c0807fc87d8dcb9f122fd0039ca24bff1d4f5e7749c09126f170d551",
        "e_src": "54fb42ac6293f6b3b25b6ebcfbc0f2a0a98d013750578a0837d28b796fa98afa",
        "e_dst": "d2bc8116cba53839908db9dfcf11b13cb0edb02130711a0c6a03611af2c4695c",
        "e_w": "b7c15dcef472455a478d013b24e8058850809a168e726e4a2f1e2db251166ee3",
        "rep_uid": "72317d2c7d7a6b18bc4f58320fd8517efe9dd950fab1803dabd524c10e043c81",
        "bitwidth": "d6373f2c792a38217fc9d5de2f53722286ab802c6999d9d1b4a0e7e16cb43a56",
        "opcode_id": "83acd713007a603d90357451db30afe1ed696d3ac419e53050b66f6037f26205",
        "func_id": "0b6a0a01a52ff6d6e97ebce8c77e6e5c044a9ccde78c5a5aaf435ea8c1e5bf2b",
        "is_port": "3011b2832d8aa3cab7c316ce3ef57b172590e39fbb623f9750bf46ef42e1c9d9",
        "und_indptr": "70a3f8d332980a2945f2505cbd47c025131e62b2c46736e51c1492de5efa870c",
        "und_nbr": "0f1f0f65366227c83c6ec8fd4084e147374f844243b27f452cd8d77c72de7da8",
    },
    "face_detection/baseline/unmerged": {
        "node_ids": "421d6e02920ea65d3b387c7ac5c3649b75330c0d8392470d74463d449778ae37",
        "e_src": "ff9bd62184240e6cd4ded18ce6090e77900f8c4fb7f46363fc48460b8e159d13",
        "e_dst": "223c31d1495f2871e28bc51f8aa45a21407bac5558ad5e76769d65a6add0d522",
        "e_w": "7636b9f3ece5d49f156aa56480dd7557b9c6b73886285238eb13e5e439f4ac9f",
        "rep_uid": "9cd5f280536ea90ec8b676c44569fcb1deb85cfcdad4ea4b38f620bb3b02e604",
        "bitwidth": "7899a5880f87e06321a61b535116b6902e1644ea46ac27e935cdd0a335b30ade",
        "opcode_id": "c7266cb71d219bfc62aceda470c3af85db22c8bbdc604f36891707e855eed6ca",
        "func_id": "f24c8732c9e086b4f809ca54b48ea10d627933d09de89f8de42b728beea61615",
        "is_port": "d97ced3e2722a30db257eb278b4d89d9aa59ad28a5309f358ba9088dc48816e7",
        "und_indptr": "f016e6dc99b4b74b5eb0761f23f75a101d9d5f597649d8548f1ca01993b45b71",
        "und_nbr": "5cf2a5b88f36a9c986b640e6c1e442fbfee1fabbbe3351ea8b0181e6e33ab7d9",
    },
    "simple": {
        "node_ids": "281b02b10f5f4997e5bf8c93343e6f2aa8bc81ffad6d6813c593181ebceda12a",
        "e_src": "281b02b10f5f4997e5bf8c93343e6f2aa8bc81ffad6d6813c593181ebceda12a",
        "e_dst": "deaf6e366092827aa6e8a31396d50f21c342d06331d1d30a05eb2774282169a2",
        "e_w": "9841ccb8536d41942344bf00b08d81cba5b27f88b754a5d6d0970d6dcb2d4c57",
        "rep_uid": "a8eb5176601a8d4aa89c0184ef3a48985aab1d270200e966a263b7851c565635",
        "bitwidth": "b130ec769616d75b763669bc811e62df62c5c4e9f786be4ba86f0bd66cbccb20",
        "opcode_id": "2119658865b5a58ab000265f6f94c9d467e51364bcf74483646f776f14763d13",
        "func_id": "2c34ce1df23b838c5abf2a7f6437cca3d3067ed509ff25f11df6b11b582b51eb",
        "is_port": "15f2f1a4339f5f2a313b95015cad8124d054a171ac2f31cf529dda7cfb6a38b4",
        "und_indptr": "9f92485b15db57053f40f081519c4da981968b2be6c5ae71534a27cae5f0f5d8",
        "und_nbr": "5743b07dffac1849818e0ac50d0e91ef5d6e6a2b5dd11c4fbacc9bbf6aa14940",
    },
    "tiny": {
        "node_ids": "2121328acdf4592d1d9250e74871207361b39ce2382e60fc303f79a02e5399e6",
        "e_src": "ebeab16877cc5f8283c4cb6e35e6fb13ad1365e902bf42955141193812a66f3c",
        "e_dst": "9022ac3635e30544dce542f9180347022d6a73dfeedb6c24b06098efd1ebc686",
        "e_w": "7c561e04f4fae43abbf565a66cfd73a2187e05f676e4cf3680c0743e4c2e4eac",
        "rep_uid": "b45edc6506a5197b2dc24f0496e02e6de95e64aee9bee0556c9d3499e26e69cf",
        "bitwidth": "b9a9bc409d1eac47a07d3dbd55cf8cf09d3358c4039cf872677db3e56421deb7",
        "opcode_id": "1ff35db1a2f51467d8644d428a52341708d96c262120f046eb4c4d2aef6edc62",
        "func_id": "664e552041f802a1c71f8dcdac19a7f9a1049f4b3803c978aa7730dca9916def",
        "is_port": "9739335d009c0a8258c272f9bfec547b365fffd7d4c2f4a982b895d0016ca8ea",
        "und_indptr": "88a0bf53449f3dd3cebe344a933736a7895b6e79729441413f07073af88db6d2",
        "und_nbr": "3ddf83cbe9409e5e85e0774b1d943004b77b2fb9cd8c2626ffd8ebfeb27ca0e8",
    },
    "tiny_hls": {
        "node_ids": "2121328acdf4592d1d9250e74871207361b39ce2382e60fc303f79a02e5399e6",
        "e_src": "ebeab16877cc5f8283c4cb6e35e6fb13ad1365e902bf42955141193812a66f3c",
        "e_dst": "9022ac3635e30544dce542f9180347022d6a73dfeedb6c24b06098efd1ebc686",
        "e_w": "7c561e04f4fae43abbf565a66cfd73a2187e05f676e4cf3680c0743e4c2e4eac",
        "rep_uid": "b45edc6506a5197b2dc24f0496e02e6de95e64aee9bee0556c9d3499e26e69cf",
        "bitwidth": "b9a9bc409d1eac47a07d3dbd55cf8cf09d3358c4039cf872677db3e56421deb7",
        "opcode_id": "1ff35db1a2f51467d8644d428a52341708d96c262120f046eb4c4d2aef6edc62",
        "func_id": "664e552041f802a1c71f8dcdac19a7f9a1049f4b3803c978aa7730dca9916def",
        "is_port": "9739335d009c0a8258c272f9bfec547b365fffd7d4c2f4a982b895d0016ca8ea",
        "und_indptr": "88a0bf53449f3dd3cebe344a933736a7895b6e79729441413f07073af88db6d2",
        "und_nbr": "3ddf83cbe9409e5e85e0774b1d943004b77b2fb9cd8c2626ffd8ebfeb27ca0e8",
    },
    "shared_muls": {
        "node_ids": "4d844d35be0b82c57e51c64757b4271683d18641660e8548d51c17951820e71a",
        "e_src": "ab25350e3e65efebe24584461683ecda68725576e825e550038b90e7b1479946",
        "e_dst": "e92b80d2ee5ab0f63d286728dc9849450b7cf439c2c2718d3bac632a510fd50c",
        "e_w": "08127d0a1096e389b0d55d469bd4762e31ba625e8d2c4c0253a1908e7fa53d41",
        "rep_uid": "a0b770e81d7bad88a79f5c40887f1e3168d7d9fa7f4c237ce6ae979f7126f2ce",
        "bitwidth": "47f8251f598c6b460c421cadc46b920e8f24637390e8cf0e02d0d188cc1f0bbc",
        "opcode_id": "15ee300b880cff2da9731fc02141ee3c78645a22267a779cb7897117512e6391",
        "func_id": "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0",
        "is_port": "cf7605ed1bc735f6c825554154627467e1cac9df54cee8699218ed434603c568",
        "und_indptr": "bfe8d5706c9fac914f89d3507a244643218b049068762f3eee16a519a25a5b1f",
        "und_nbr": "f5879a3114447d6ed088f1e081381d0bbd661e8fcd6b345d7a5c3754ffb9b5d2",
    },
    "shared_muls/unmerged": {
        "node_ids": "f190072c5052f4f440d4a607c25f5bced487c420806c9aab4ca5b0653e72da61",
        "e_src": "346482fe50b71be34e695bbf406486be940725d716cbd7b7a5f93595c725fc5d",
        "e_dst": "0598f53f83ceb63f18dc292cbb8bcabb1dc43a8b0880e81700b4bebfb648a3f4",
        "e_w": "27149ff8eb428bf34c96b22e1dc28b6142ddb80878134b774660efb19b1066f1",
        "rep_uid": "f1fba64452e866dd937e0c5e19ac3e2f84538e10721ed24f7641fd249c7546b3",
        "bitwidth": "f909f94edeef52058f0a780e98032522aa62d5ccb2dad2325d10a8b2db742acc",
        "opcode_id": "7eef7ef52136d669fa2dc2f4fda8f75e854fc224644c2d0087c91a22db17bddf",
        "func_id": "17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1",
        "is_port": "186128bf8a4d60eb4b51102ae2a2cb6a0b80011977582480395a454454bec7e1",
        "und_indptr": "bc518758be63c76b803fd19b2aaaf7e27810c9531f6dd9be3e988d036567df7c",
        "und_nbr": "9edff5aee7001a86735318cb943e31406066d5dda0e67900751c253ad668c160",
    },
}


def _combo(name, variant, merge=True):
    design = build_combined(name, scale=0.3, variant=variant)
    hls = synthesize(design.module, design.directives)
    return build_dependency_graph(hls, merge_shared=merge)


def _hand_built(case):
    reset_op_uids()
    if case == "simple":
        module = simple_graph()[0]
    elif case in ("tiny", "tiny_hls"):
        module = build_tiny_module()
    else:
        module = shared_mul_chain()[0]
    # ``tiny`` is the unmerged build, ``tiny_hls`` the merged one: the
    # module shares no operator, so the two must agree
    return build_dependency_graph(
        synthesize(module),
        merge_shared=case not in ("tiny", "shared_muls/unmerged"))


def _build(case):
    parts = case.split("/")
    if len(parts) == 1 or parts[0] == "shared_muls":
        return _hand_built(case)
    return _combo(parts[0], parts[1], merge=len(parts) == 2)


@pytest.mark.parametrize("case", list(STRUCTURE_PINS))
def test_structure_arrays_are_pinned(case):
    graph = _build(case)
    digests = {
        name: hashlib.sha256(
            np.ascontiguousarray(getattr(graph, name)).tobytes()
        ).hexdigest()
        for name in ARRAYS
    }
    assert digests == STRUCTURE_PINS[case]

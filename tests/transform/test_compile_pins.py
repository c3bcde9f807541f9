"""Byte pins on the compiler's output for the compile benchmark's inputs.

The inputs are the 7 paper sources and ``generate_program(0..199)``.
For each, three SHA-256 digests of ``format_module`` text are recorded
from a known-good tree: after ``compile_source``, after
``optimize_module`` and after ``generate_module_access_phases``.  Each
task's ``[method, affine_loops, total_loops, reason]`` is recorded too.
A compiler change that moves one printed instruction, one name or one
decision fails here and names the programs and the stage that moved.

When a change is *meant* to move this output, re-record on the tree
that makes the new output and say why in the commit::

    PYTHONPATH=src python -m tests.transform.test_compile_pins > pins.txt

then paste the printed ``PINS`` literal over the one below.
"""

import hashlib
import json

import pytest

import repro
from repro.fuzz.generator import generate_program
from repro.ir import format_module
from repro.workloads import ALL_WORKLOADS

STAGES = ("compiled", "optimized", "access phases")


def _sources():
    sources = [(cls.name, cls().source()) for cls in ALL_WORKLOADS]
    sources += [("gen%d" % seed, generate_program(seed).source)
                for seed in range(200)]
    return sources


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record() -> dict:
    """``{name: (digest per stage..., {task: decision})}`` for this tree."""
    out = {}
    for name, source in _sources():
        module = repro.compile_source(source, name=name)
        compiled = _sha(format_module(module))
        repro.optimize_module(module)
        optimized = _sha(format_module(module))
        results = repro.generate_module_access_phases(module)
        phases = _sha(format_module(module))
        out[name] = (compiled, optimized, phases, {
            task: [r.method, r.affine_loops, r.total_loops, r.reason]
            for task, r in results.items()
        })
    return out


def render(pins: dict) -> str:
    """``pins`` as the ``PINS`` literal below."""
    lines = ["PINS = {"]
    for name, (*digests, table) in pins.items():
        lines.append("    %s: (" % json.dumps(name))
        lines += ['        "%s",' % d for d in digests]
        rows = ["%s: %s" % (json.dumps(task), json.dumps(decision))
                for task, decision in table.items()]
        if len(rows) == 1:
            lines.append("        {%s}," % rows[0])
        else:
            lines.append("        {")
            lines += ["            %s," % row for row in rows]
            lines.append("        },")
        lines.append("    ),")
    lines.append("}")
    return "\n".join(lines)


@pytest.fixture(scope="module")
def recorded():
    return record()


def test_every_input_is_pinned(recorded):
    assert list(recorded) == list(PINS)


@pytest.mark.parametrize("stage", range(len(STAGES)), ids=STAGES)
def test_printed_module_is_pinned(recorded, stage):
    moved = [name for name, pin in PINS.items()
             if recorded[name][stage] != pin[stage]]
    assert moved == [], "%s IR moved for %s" % (STAGES[stage], moved)


def test_decision_tables_are_pinned(recorded):
    moved = {name: recorded[name][3] for name, pin in PINS.items()
             if recorded[name][3] != pin[3]}
    assert moved == {}


PINS = {
    "lu": (
        "77fa47844f4bd1b2aa52913cbb6ba83e35e837ae227ae7d003d793deb76fb513",
        "9a4b6a4845d40e7f9259898400a45e6b329ec841917c714d92c34dcd7b6c0b82",
        "281986f799e634efc7df6e61be1cd3cbc0ce62341715a1eab29b1a64d7727682",
        {
            "lu_diag": ["affine", 1, 1, ""],
            "lu_perim": ["affine", 1, 1, ""],
            "lu_inner": ["affine", 1, 1, ""],
        },
    ),
    "cholesky": (
        "b7a4c79449f883ad7075c182ab27f231dd05b17b84d2f3fb4a6fd07d0c55dd11",
        "72ecb9aa2f038c988b7966f42c3c4b3f38ed188c0d3f15ac7fba570778f23a79",
        "9e8b8ffbc2935eae4cf18db2f651885b990f74955aa77e1c6847fa2e30cf2ed0",
        {
            "chol_diag": ["affine", 1, 1, ""],
            "chol_panel": ["affine", 1, 1, ""],
            "chol_update": ["affine", 1, 1, ""],
        },
    ),
    "fft": (
        "041aa6d9cecced63dd6a0b8e5d0ad10083a9a7fa95e48a9966a62affeb9a2b9f",
        "ae9d04cefc3165b74515a4bd6c0f099305a2ef4b20afae066fd70b7c3bee0d5a",
        "7aa603ef45c1cbc0972202d1360547e4c86b8f1b406f2ebf0d02d8d9e5fc4161",
        {
            "fft_bitrev": ["skeleton", 0, 2, ""],
            "fft_pass": ["skeleton", 0, 1, ""],
            "fft_twiddles": ["skeleton", 0, 3, ""],
        },
    ),
    "lbm": (
        "1f9331e9735a98755439083e17a02d552e201e32a52bbd905a1f2e6846675c48",
        "b4c6fffd82042e2fb0fe2f8ccd89ceff4ec4a52498dc307fdce0e7d112c3fce2",
        "d880d1aa9bf65530cc1d7f66da89edf6f4cdfb76e9186938c9382019ede5bce0",
        {"lbm_tile": ["skeleton", 0, 1, ""]},
    ),
    "libq": (
        "8752cf89697cd0e89e688f14c041898be782940c6a41bbe9aca78aaf79b0d25a",
        "b308190bbaf8bab7a79fcf79bf3bbff315d178c09272bdb33ca5c805f77c84ce",
        "1a4e566ed33b2faa0ed7a450c1ca7394039299b179245a88f2c89dd142b98cf5",
        {
            "libq_not": ["skeleton", 0, 1, ""],
            "libq_cnot": ["skeleton", 0, 1, ""],
            "libq_toffoli": ["skeleton", 0, 1, ""],
            "libq_phase": ["skeleton", 0, 1, ""],
            "libq_damp": ["skeleton", 0, 1, ""],
            "libq_prob": ["skeleton", 0, 1, ""],
        },
    ),
    "cigar": (
        "f39aa487eae01db05284f08f5fc1670584b6ccb9626c3f14ef629c0ade6a4f49",
        "17a9276b110d0628240b678904f191d77af8f661dd4e48ffd78e96a7ca86d059",
        "facd1100dd1bf036f3f73a523b751ddf51bb9031a6f66e3d44cfceffac171e1e",
        {"cigar_fitness": ["skeleton", 0, 1, ""]},
    ),
    "cg": (
        "0732cbc3be1214f458c907a53b3d9927a0c8966dcdf6cbb537d8cac1437234d0",
        "e26e7efb73d27b611de4b71535aedd1871681f0f2baf9ba02db6d4226f5d9020",
        "f89496094a75e6e21508caf841015be97de4afcdcc3683ab8debe170d29d54a6",
        {
            "cg_spmv": ["skeleton", 0, 1, ""],
            "cg_update": ["skeleton", 0, 1, ""],
        },
    ),
    "gen0": (
        "fc3b87f6c238d582ce48beb6a2ce1534f64abc455e850bf68586a70d94cd22d1",
        "661699279c8aa440f3b147eee898929dea51d7e7083ebe08f05c4ecd6db91d7a",
        "ef18bf40bd8f2c183b735a31b7f17e2d15955a3e8408e4558eeeee5d8576f039",
        {"fuzz_task": ["skeleton", 1, 2, ""]},
    ),
    "gen1": (
        "52d001a0aad91c40150a953a2f9ad79ecbd25a7054e934a27b8d9c6fd652594f",
        "8405a6bb856c0a26a65fea79e8c703f9a74b333775e63cb3fd732b9f678c534f",
        "d76cbd7688b973f6d13c56e285cd11246b6efa732b5e2a7f86b23f93f943509a",
        {"fuzz_task": ["affine", 1, 1, ""]},
    ),
    "gen2": (
        "105c173ab9345c201d1175d13681eb230d734edd5528860f67ca911718265eb6",
        "32bea6d4db692e11d28ed9f7b2ad34085c2145a88f20d3475cf288d2849f7dfc",
        "7b57c4a634ba3db9b910028304094549df83a451d218e46cc8c9b2d754d18b42",
        {"fuzz_task": ["skeleton", 2, 2, ""]},
    ),
    "gen3": (
        "eda7bd48bb565b02a88b42c251c2887ee1139b5d3c7c9bae75134a8914a39267",
        "c2fbd9b0569cfcbbc467d829c70c58d0c4679a5317b98d63d3a8e74e00fda57f",
        "06d2858c76d8980bcb211189a26b46b2b1d0f19bbab3fc97d43a65bb7c7db782",
        {"fuzz_task": ["skeleton", 1, 2, ""]},
    ),
    "gen4": (
        "1765b3d17ff7791c38f535975e361f42f1748165841b8b8910d9a496c9bafde0",
        "b107b863e1b3cb4d2c2e94fcbfd39a5caa38fbde175308b9066944090b0ecd43",
        "5c9797e06858c0ec9b790784d6f5fbe52e2e0d72fa10b4f917e81f371500457e",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen5": (
        "342d4f4a84331b5ea6c8100d217ca2ec28ab99ba4f38a3e8f14c3df0eb9c382a",
        "0ccdecdff7b2889fdc4fbfa034df43ec2a505a364465e6290dca72d1a32d0be1",
        "ba20997a482e72eedc58c42af04be0ef01d50cf684e81dce55c6045354ca620b",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen6": (
        "fa45114ff8e303538e2a1e5588fd91cd0aa8f02bb18a13ee92899f3e1b8f793e",
        "e4d0cd5cae965559512086503b149ed7ad5df46a3f76b450db9f8e86c23d6bd5",
        "c4020c4525bbc64ec794da0a6865987fe0b681c5e0e05830628797fcdd495ca0",
        {"fuzz_task": ["skeleton", 1, 1, ""]},
    ),
    "gen7": (
        "5bddd697f1a7e0da8e4ab7b553a9152614bfd49ab4b41067204d32b7dd6c2a14",
        "d946c8c5a68a2d344990947b6be5b72a387fadd0e65d83e0a363703b2eaf9a54",
        "e38732ed375bf7457abe656fd544f8763c30907e96f7fb04cc35d06ece53212f",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen8": (
        "32cb28ee5bf9edf3196d8c1a7723d9b9994a7443d796a5d912eb19dc4cdb2106",
        "7a7da56c2598f8c8eae85f132cab55c56fef1078dac94e45daf3912c587891a8",
        "9063414cd36d75f82cfb4305bd3810bcfc73715fb64687e39238ec894e6031a1",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen9": (
        "13d283be26952e0489f7bfe0adf9bff0908cd4f375a1d38db2b08dcb1022e5b1",
        "20fa03c46f305911b480cdcebc2507fd95fe4f80e5ab8733a66207b61852e0a6",
        "90827dc601bec01396783951a851f0e20fad3ba5b38bf5c93078a83fa1e902d2",
        {"fuzz_task": ["skeleton", 0, 4, ""]},
    ),
    "gen10": (
        "775325bd72435eca6890383da8233e00fa3bb0d9aa7cede3dff700b09bf4a188",
        "339df50c9b9508db623af2d3b0affcfdea9b5ee58f0c079613dc44cda72d6df6",
        "654275447d1818061a981f87457103a2b3fd8a0a4692621eacd8c14c478528b0",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen11": (
        "34b4549bf442a00f10b955e1df9f8ddf6b7c4d449f5b58242cbd6d25b5bcc8e9",
        "cbbd8d5943a92f14692076ef0d15dca84726f852c62cd0c707880ad2ade67b90",
        "da9f91126db2bb456776b0ef004716b25e6af96b56df4cf49bfc9be3e0e68f8b",
        {"fuzz_task": ["skeleton", 1, 1, ""]},
    ),
    "gen12": (
        "5a8b14d4c6801bce6b80c32103721cd5d00a7b4ee07606570fe1a1c263f0af95",
        "a53601eee2729b9d38ff02eeffc43c6ef435835c47cb6f66e7e352e151198582",
        "50ecfe0092bc164c1cb2e31385598de67f14e8b5f80a0ba6897c986e46c38e56",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen13": (
        "52b4ca4fec32dc96dc4b9874f7225ef4a269ac24b6720cc4b6718120c5531c3f",
        "2ba754f02e1984b7f010d37fa2f5ec8489f90a12025a1abe4810eb233823a364",
        "a3be9426900e1dad30c4317af995b0a9bb4c8e5d0a03dd187b09c96d6048d27e",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen14": (
        "d2ba8f0b57e9f7a1a562c88efd357dec1e782a6f74a03b1dc4543d774a7f830d",
        "52717c11d23ba51aeab4517065034547191b305ab543ee2df31ac574af8f0688",
        "dba2dd63c4fd83bc9ff0050cda88e242ae3bd1ee7145e5ade9e6d87c1c24342d",
        {"fuzz_task": ["skeleton", 1, 1, ""]},
    ),
    "gen15": (
        "3e60ebdcaa085491d6263f3bc2fe4d4253fa52ad86b7ebb0e810390df4235c20",
        "7885cc3ada40d6c40c6b42bd293516f28a275532318ba956df576dcf29f77ed8",
        "63f55c48a8081520847ae74c0abece6ef84b001636a17538483ac9f82f056982",
        {"fuzz_task": ["skeleton", 1, 2, ""]},
    ),
    "gen16": (
        "53cb69b7a1ce7ae4ac2d799fad0c62bbae980dc5d4a634dba7e73d5a1b830456",
        "f9545a4bb38574ef31c0846f205b56007294273b8d32009ef03bfb3b6e19cccf",
        "19853b25e830a48dd2932a4e7bc31183d53db55ce98eccac94ff71be01152647",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen17": (
        "c2701b1b5bc81b09e29429f6633b264fbda5814e73b9a0e091d6563f26331455",
        "8096961e9fe14c806f851bf13e3462a7f7e5b58a18918c5ba18e54208b2a56cf",
        "33f2008ac56fad2c7954ac3dcde75e31a213637d5c4037cff3194832e66739a9",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen18": (
        "b6423dd16f99c064c882a48752db8c1435b47503dda4c64785ec789f0a9b23a2",
        "35afc0d742aa2624964bbb99aa2ba3192ca5ecd3b00d9d9f5c2c4c6435006c2b",
        "e3ce954f8f11242cf6dfdf15f799778c1d02626fbccfbb5a5b25f84eeaa0352c",
        {"fuzz_task": ["skeleton", 1, 2, ""]},
    ),
    "gen19": (
        "3f5e09c81bd359005d0f1c46bd97fe76d4b202db7708b0bab6b715406405cf96",
        "4298f5e3cdb8f9c0426fbb48755e8a61fc461c43489945626a7ac2d03fab93d0",
        "5397de4984b5ca4a73824feec2a81440756e9b8c9d894dc8c8594fe845538ad4",
        {"fuzz_task": ["affine", 2, 2, ""]},
    ),
    "gen20": (
        "8d7070247b74d77a82e289e79ee6cf735b8dea8aaffb60c0d6b6fa7e7ed04f5b",
        "8fd1f290f6774e0a4254a86fff82796fe8d9f51990d041021b29f70aac50f2a4",
        "f5d08c5cfee69b8772eff851a629557fc0436de92093d0e1b93cd61dfb9d532e",
        {"fuzz_task": ["skeleton", 1, 2, ""]},
    ),
    "gen21": (
        "19a1055d2e14cae993920d63ef80684a55375e63bc5b613277de6396c3274595",
        "882864c97f00c6c2f60f6a0eb1d03246a0834b778d28223008d242eff3625ecd",
        "c00e3955e9c71f63bccdd6c8b362bb71e3cbb06b2bb0ba6f99e11a0d72c8986a",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen22": (
        "230a822aee1c9651803f4d0d1cc7d8a51fa1dd6f865dec2a2592697fe4f02f15",
        "94d4ba99b9d41658c9be7e43cbaaf2058107788f66f49434e70efca764cfa957",
        "ea6d4f0d5de79eda89a97f4fa85e39336910693b91f004aecfb1654458b77332",
        {"fuzz_task": ["skeleton", 1, 2, ""]},
    ),
    "gen23": (
        "6fd24f38c173d1ca06018b228e0f221cad8f69f26c105b0d7a2dfaf4feb04492",
        "eb4603ad06d00f3b834f7c820c329689a9394782b91915e0710a3d6a1a61cb47",
        "30c1b5a7d6f0e8998cbebba6bb2f6095586504734a1ea5ff72e030859f1598c8",
        {"fuzz_task": ["skeleton", 1, 4, ""]},
    ),
    "gen24": (
        "22aff64d46be3efe8fcd73aa4e2a5f850b88224ab27307cc6fe12e305aa89c94",
        "c613b91e82717b736d8fe0a6a75f9659f9d979686998fddcee520cee0b087e50",
        "a38b185ccfa102e0a41a26f8a12d6b778ccb3c05724b1b0884884fa258c56140",
        {"fuzz_task": ["skeleton", 1, 2, ""]},
    ),
    "gen25": (
        "4ecf6eaef400d90437cccd70bca69d77160962edb65287d30a8617e29d1ec3f2",
        "be34c849e5ef33a20ba61050e3e9f740225848f179e778de0566b1afdab1d862",
        "6058fa5419dc5c6e06ad17203ce2f27bd081185e09ce3cb50b1163462b8f0334",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen26": (
        "0fd0f4acba13c811c3cd4267dda19b0d4f8b17c51a3dc22d8ac74fcb60d0d448",
        "08bc307ecbdedefb6ba0f189f1f72d48b4a2e0c84799ac8a87c926a95661b65f",
        "946fc6769ff0cac729f62993be1221371c52d352a172bf35828c7c02e13493d8",
        {"fuzz_task": ["skeleton", 3, 3, ""]},
    ),
    "gen27": (
        "6422570ae0060fa67ae467a3d24e6726882000555616df184cad1efe74182b76",
        "793328620ec6c020234a6f49b860163c613488957510ad983c3002a0e985fdb9",
        "74e7cb1ec1b473a040a2a420266cff3514b3a7b601dfc992922fcf596cf20424",
        {"fuzz_task": ["skeleton", 0, 3, ""]},
    ),
    "gen28": (
        "678054c837f8e2ad244ad291edcf94a4ebbf66fc92f074d2611473da95f23e1e",
        "2e01e06029488f66d12543df21f865c2248071ee186258e0fe0048f1d39f139a",
        "043e5b280aa3187762c64677d4bb3848e512acf936c73483f51dfafe08f4c3e4",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen29": (
        "d2b0cb0e18ec7fc6ca160f560f0b15b0d843c8dd8d498a737536d8de349c8cb7",
        "c298530cb37caaf9c64a11b1e2d3e16a89039d1f8c859278fe72cc71fd608734",
        "8907f42bcee424d2cd73595483e48f30964fae8a6a25ed22ece1666a9989ccfd",
        {"fuzz_task": ["skeleton", 2, 2, ""]},
    ),
    "gen30": (
        "81af557e08253571a8f8f6ebb97cbcbb38810c0427092b0460e58d90c4de5f49",
        "267e76be0902a9a05789b5f845d2012b0948c928e893ff558c97ac00383eca6e",
        "bf68b937a04c5390328d92230da8e9f1ad240f8a8281b526996dc6f1aac3ec4f",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen31": (
        "f0f0575a72482b38a4b45a5d48ad3e62a37d9db9b45768cc3608baf8bfd3d33c",
        "b1ea2f22045f3c92753203bbbb290c9def4bf0ebb5cd2dc1bc196e4cbbbd31a7",
        "cdd58dbe25e967cc9110dc74a8a00844dfff7af6cc7d88dbf3a34dcb72ebf948",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen32": (
        "2348c876280fcb1a601f4f9252dd88923e777da57e5a567a7f77ea85d8b7109f",
        "0deaf37e79a8a97f4f2428690fc12820f35885ef937c54b6d1ff3c291340254b",
        "0deaf37e79a8a97f4f2428690fc12820f35885ef937c54b6d1ff3c291340254b",
        {"fuzz_task": ["none", 0, 0, "non-inlinable call: cannot inline @hrec"]},
    ),
    "gen33": (
        "a89b24d523ed19f0dd0514cbadaee064c2bea2142bb28b000052e7b25df93671",
        "dd63374781b15517add21c25f97e3de68fb14d35567373aa83227372c58fe65c",
        "a1da8997853962cbe9fdeee9789f1d4a24cc8ee4802bb136038198fb8be2aa70",
        {"fuzz_task": ["skeleton", 1, 2, ""]},
    ),
    "gen34": (
        "cd4c8c89eeeb09ec1dbb39fac05454ed5b8567926569a4c8c4a354540858b9dd",
        "3ef3ca6555c82e2dc70dad1bb5ac9beee8d35b1c4eee40b957ff52d54abc0b04",
        "7aa4071976e70458fe27e0563552987dfd94db5186ae1f5d75f0c72e72e390e7",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen35": (
        "c2c9f4efe819ce3dbfc1f6512b1621edc2de451575e7d7db1411699add40b298",
        "8f568bc6a3a179bbb4ae8fbe03df0fe9cbc57e7e3fadc2abb14a7d9076f7e880",
        "361cdfb39add1d652d7a4a5295f12925aa490b28b0fc93d6e27e192960d06fee",
        {"fuzz_task": ["skeleton", 0, 3, ""]},
    ),
    "gen36": (
        "391a969a9291cb067038d954d72d18ae716f5a5747ae59a168cd73f77f9606c9",
        "dc041e0a169f6cb7b84d9bae31cd4268352dcc20ef7a82599a2e5237ba66afe7",
        "9d4a01098565a4554850372e95488d5f3b6bc5ee7d30311a13bb25aa79f5698f",
        {"fuzz_task": ["skeleton", 1, 3, ""]},
    ),
    "gen37": (
        "ea74ac1938f2025c70b71f15ee0dfbffb6ab4f8bdc3893520363a29b364a4a7a",
        "51d97ee6f89c55d8bf5a7d9379c7ae0a0fca7a656a3ec14188ea4953af5c63b1",
        "8002888d2b34b7a476c3616f35090d3b23e070dace9e1257a211f26a7142f9e7",
        {"fuzz_task": ["skeleton", 1, 2, ""]},
    ),
    "gen38": (
        "501030f0f4a1edf364d9b7610450f7e9033d868e6d8f8d9d3f3487afb5c59858",
        "30ef47774e0f6a47ab6ff030d04908de7e31a7d71a1fc6b5bff18ce338856128",
        "211ae5071deb08c5a3205ff26d6c0055140aa499f482e080145aa16c3f4a74bd",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen39": (
        "1690ac51dcf96a1cf6e5bcc22c4078baebb65db26b9d1ed3003c070093926563",
        "1137203058e9acc4fd92dcb45daaa1d3223ede51e257fd8cd155c39a561757c4",
        "8e4d7ab636404cf2c22a9a3c78fcfef5e087d3dd8325ce793316cbbd683d93ea",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen40": (
        "7825c8df19d8be3078150f218ed711b461a6b97128d97b5067a9a266c56c8fd9",
        "06783a6ac558409eae10334b02271677476c7d2fbe70a1987c62eae52d7acc9e",
        "c4b3be677ed3103ef48ada8f7306a29ec5abd70454e9d1a349f210709db19a97",
        {"fuzz_task": ["skeleton", 1, 3, ""]},
    ),
    "gen41": (
        "41864b46b0e5c75b3ec7ea3f8f4ea70c6ac5ae14638502ceb915993839f0243c",
        "fcac539c9f4f1f06556ae8c7e91c80652f793e00b3504012d0e321b3fda70221",
        "80de81f4234dea14f0e62ed556baa2beaba8c1e0292d10485300d9e4c601ecd0",
        {"fuzz_task": ["skeleton", 1, 2, ""]},
    ),
    "gen42": (
        "e27550f051e8d0a30dfa9e909e1ef8f82ac10d3a37bfe0f435ad35eea2cdf827",
        "9538f2018c406e93f6f28a2a3781a6c75b265c57dcf204919c4dd59562eb1efb",
        "4c36df6b1999d7291bfbee494b08ca5f6ac5b085be0d02760ea4c26fdb7df25c",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen43": (
        "68d60c20374475ff440bcebe420802e2d6bbe02d00de7eff527137a0069da6c7",
        "0c1634c2c1188d697b1303c88971f8fbb731a7987fe56341d18c51fbe90a071c",
        "ff30f3e28271ffaa4285b86bff78f926c57c3b037c8129301c4b4484d60183bd",
        {"fuzz_task": ["skeleton", 0, 3, ""]},
    ),
    "gen44": (
        "06aae3ad7a30bbf87c2b1decd8f3af90c9a8f1ffc0ee98f7dc4757c895d849e9",
        "8d330f4497acd9d8a79f9932443e37737cbc45ded7c1ca0a9bc714cf126be4b3",
        "3015cd125737fdbe1bdae0739e394830da7b6ffffddc747b6bf3259772768b8c",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen45": (
        "4b5c3ed41494b27eb99777fe087c81fd6705e3026dcc0fedc75c5cc89b943e6a",
        "e7e0d4c8ed96fd42e5021af51a9ac4924835837d1a584feef9840662611766cf",
        "c7babbd782aeb116dbdb6c866b87869d151cebca963be8ba55a6a14a25caeaf5",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen46": (
        "6d976d37e93ccf1eaea6d29528f9c659646733d2a8752bb385c008cdaa671ec8",
        "cdc9e2db532da4b027db83aa45fd0de1a0e0e1bfd3c2339cbda6041740bcd7a8",
        "c9facf3a262f5a70993022ecdf833a59322f0e186ef1037f52a8b96fed52011d",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen47": (
        "a57a7ef974afe1dbf823228fbf87658b95ac1d352b34c3e23f70b5cbd1611737",
        "e9084a17b656766ebe410f448c42dec9cc3328a3ce5506f5c556e7a59a562796",
        "9b936455699c41d5a6d18d97faaea3ec9a91b1c96b940e191ff0f8d1ce3866ed",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen48": (
        "28850c1e7bc1c2ffdcc13b08be7a15359745af83e7c7b9fa3242c0ad76dc318d",
        "f9bcd31ed57cbfedbb431247d698887b34bf8ad8d86c6c75004f95b780bcd9d9",
        "abfa4cb177e59e05e12851acea4dd9ec573fa8c20273e468f41976c59b7828b6",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen49": (
        "eaafbd44fc0871ed23b51b28a19bb28150fcb8ecdbb9a2f2722936a7069223ce",
        "7b21aeca55de72bdf41c35106719c977594ea63c51a9685868df1951bb535875",
        "d0c6b258c6199a870d4a93a5a782fd9282b3598340e26c69f3bc04f367b3d854",
        {"fuzz_task": ["skeleton", 1, 2, ""]},
    ),
    "gen50": (
        "c02385cdd0c807449b35db2a33ab3d70fbf61a0c74d5adfb46f0430ebc24e882",
        "1806f8d9a467da5c20b1f99343704f2454ab6f4c0913b5136cc786fd163bce69",
        "7a085878654b720b2c0313bc230779a424e94ef93a2e828d0637e6279e1c2dfe",
        {"fuzz_task": ["skeleton", 1, 2, ""]},
    ),
    "gen51": (
        "03d99b8883427e409a721f672a2ad942d0c418508a258dbb7fe43941425d492e",
        "c7fc5f62c67c0f793ef6735454ea239cb310698891486efbdd646a2a34055810",
        "500dbcc088f869f8f0115dcbc39dd10846cd5e33ce71ffd288a4063a68b53b09",
        {"fuzz_task": ["skeleton", 1, 3, ""]},
    ),
    "gen52": (
        "8263775af5468594c18ba0d3b59b473c552b6cdfa465dc45b44b83325ac71205",
        "29e7be722dc54946dcfa4bbc16c2292d276478a20d5f4e67720a3e113363674b",
        "537a0eed2cc4ccf406434d4597be2f806476e4ec9e1ef5d267544ecf87dfda8a",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen53": (
        "b851f26dfd685646ea7a950f5ae16ba4822de5ccf2489285531ce9ad2a404b1e",
        "c6a81536577148b20133027c36ab00c0d13c3f77ca03ed9e5b18dd39b2a90180",
        "622a7e9c28592aae295870caeea305ebc850dcdcd702fb40e1f57b50d7f293b3",
        {"fuzz_task": ["affine", 2, 2, ""]},
    ),
    "gen54": (
        "0c66f250281af1a2a740f788546ab0762426e068b98b7d5ffa5ff27cb037a94f",
        "9e99b6de118e52ac8f04902c56c7966c7e827643a2379574f6dc2af68ff2fc09",
        "9545fbfa15c0efacedc5741726245a9c0dec7473a623ed13f68b7fe8676b7511",
        {"fuzz_task": ["skeleton", 2, 3, ""]},
    ),
    "gen55": (
        "cfa23627621371ab6f721330701f0c5548e354091fcfeaffc4aa44711b3d40bb",
        "f33651f8952d6d56b0e521c36fedd9c21f83a77b709baf9a098f41adf82dc749",
        "79dd508710b9c8f6c37906d1692ed3dac9ef18b1397fd6bfac8acffb8ff2e386",
        {"fuzz_task": ["skeleton", 1, 3, ""]},
    ),
    "gen56": (
        "5b47d7c1e9fb60cd1b0c537becdde70360884193bb7c9b9772fe7aeb35f6d4d8",
        "127a97cf08a2b8b0defa0dc403b45a0179083591d32c8e8064ff90933c055ef3",
        "dcb9d896dc98faa4741427cc71dc100b5cae3a2c3b306adba162401e339f9e8f",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen57": (
        "8c67d4f02b6cfa5c1a85f7a488e4440c6d3c9fbbdea1d484a41c65fcdb6bfca4",
        "91cca864934c88a852f9253546f19355cbc0217e118819aefa196eaf2537d102",
        "1af49c7679e8258ff88a941e5e59be707dd4dfabc76de2942b79fbd146a00bc8",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen58": (
        "2a8739f920ec2e5c32e4d15177c22d800572754d9eeb6423133aeb989caec9bd",
        "2e4c1a41f72325654c298650edd10a9b9b21054475570b9a1cd31d87e4963f54",
        "aad2834e576969caf40491908598aff57fc3b94293fdce264a4af1481ef6c975",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen59": (
        "2d622c2340c6b5718efdc3704014d7b9a5206bf61c0f5d8104113d924c69bfbc",
        "93afecc527090b4ba29cff1c16269079253aedbe3f90ee9f382f9e5f4692ac57",
        "66dd5b629fb2d543684849646921858ae5317a6e1905360687a1c4271b70a9d5",
        {"fuzz_task": ["skeleton", 0, 3, ""]},
    ),
    "gen60": (
        "3352f6478697d35612b0895b978190e8b86d0fb8dd435e63d43f3c90881fb955",
        "c046431a62c28b7ee4a9b0fb095daa4b830422fe2c78d7d6a46607fb29d6dc16",
        "aeb98cc3c958cac86bdb9b18ce57c9f5428cb2950434079e5c23cef958c39e5a",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen61": (
        "759d8e05fc2a3c6199d6ae688baa7785a90951f65a286dc8da64a3ff49220fa9",
        "a10d23607b4be7b0c3d3f13145cb36d750a1ca8fcc3577a7b7bd2355f7371a3e",
        "ab771023151a2fac85640d933eb458743c6b43d9364e81f173dd6a1b8a5c1e2e",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen62": (
        "d0b70190b3acaa8586430f1c4c121be9d7c3c5cf2b5de2392877eaffb7a0daac",
        "c25157e59a89547dd0e2626245a509d85fc383ab54ca5fa244f68558ac531511",
        "6b05bd75acfe3766fcbcc9df26c6105d9638d1d0a8bcb9d3da1eeee374a0963f",
        {"fuzz_task": ["skeleton", 1, 2, ""]},
    ),
    "gen63": (
        "0186e039e96cb765e7e5a07de577a84c95d7d17d933b2c17082ab25e0789356c",
        "b6ee3cb8a5b92d6f0a7fcd014ecad9c15e8f9e02854ce3fbd74c1a416153778f",
        "445e38c73befa225b137a6cbac31470dbfef086e352d12880810588fc269331d",
        {"fuzz_task": ["skeleton", 0, 3, ""]},
    ),
    "gen64": (
        "92063962b82b6908a265e751df9f32746ae176f1b14a4a49dd71d4543482110d",
        "028a26df9e1e75960713c9249cf901adba1dd62f1c3805551ab6e71ed4414900",
        "859927106ee81ae2604219e6f243b2569aa41f8416bf0f857951c417e4eac74f",
        {"fuzz_task": ["skeleton", 1, 2, ""]},
    ),
    "gen65": (
        "cfc4d682cf28083ecb7444593923faa9a73beb1131d1eb58e262adf37daa9fa4",
        "58fe207a422b1f8f5997ec0c5040bda827aaa4886420e352ac9d8580d5cc0cdf",
        "94c689c89ef93a9acd810eb46d71c3185f4657d90b6be0629bb04864793f0159",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen66": (
        "d3c53ae825ecce4225297b1383bac9ffe1a16068baf80b62524b081f765c5c28",
        "65196641ecf9ff7bdc5c7770912fe7bc957507114baa901ab33c232054475d37",
        "cebf57782f91da2c918be9fa33b7be17bf13519d190d1220b8925eae65648c29",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen67": (
        "ae581917dba8b5814b8a5dc1c560edee6ec24c469a2f21978bdeb5a373bf9bd8",
        "485704b2c139999113957ca688e5a7cd5b5b790483851576bd7fe718c9222b7f",
        "94ee8f7f3f018b4bf5fe7a478ca6006c9d2d33369daee1f4a14ace548a33cbf4",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen68": (
        "8cae6a5b53ca8c4c343e5a36a92f69c4a5f44135b05a990c5063bc839cb1507b",
        "8fcf45183fadd69bea8be31b5f7a75b9193e1f81b3d5bb0003eae191820fb574",
        "a797201cd8dc8da63783fccc3673a11bad55e3d063b324cbce7daffae0bdb473",
        {"fuzz_task": ["skeleton", 1, 2, ""]},
    ),
    "gen69": (
        "5c718cc758c04fefd8afd9769dc74d11045d70cab2e3209e03771460f237a509",
        "8ec49f3733d0622cbbe8c936b31a46641632c2f28e24a1e34154a8e757740cbc",
        "c77fc96f83170e7f201d7ec1b90228b2822beb1b0ec1a3f266fcf01c70a8cd5d",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen70": (
        "1dd180b2a7ccfef014cd4dd25d351840e47841d6dfd7113ceb0bfeeaf58cde22",
        "91b9da0e3426eee3de886b8eb2b5c5a418713922090ebbf9d6f6e1a920e9d235",
        "bb1867913b4f6e5df98ddb0672e7696d253d9584241d478747bec594751dbd8e",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen71": (
        "49f367c1ec7aae6f3fa622afa931ec9c5884684924a524fd3d15c8c4456100e8",
        "ed5f500c9025ac95c062ed66cc7ef641813e2cafe9e5f7c4c711deafab970269",
        "ed5f500c9025ac95c062ed66cc7ef641813e2cafe9e5f7c4c711deafab970269",
        {"fuzz_task": ["none", 0, 0, "non-inlinable call: cannot inline @hrec"]},
    ),
    "gen72": (
        "a5a5dc0055c2bbf65a0180c50ef563bd97aa5d2ebf35bef8c5cb2a8297620d8b",
        "621f05708d2a96f0b12b39414510db8645cfc67ca0e4b7defd52ffab4cded429",
        "76f8721d35ae2667fb9106bea2381de13ae18b4104c3c81ceede76aa681a7dfb",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen73": (
        "4338e6c559aff9c82c27e2483080ffb76cb2c50741f9d00a917143beaa7f3663",
        "76f9790073c9576012aca3bea999ae34d03b9d902e557bbd24b206b36634a490",
        "d2274ecd1b29794ce281ad621fbc2c48c2f368b1ee861d7ec0b12a840b5d8be6",
        {"fuzz_task": ["skeleton", 1, 1, ""]},
    ),
    "gen74": (
        "5656bd6011a4ee62fb8e23b8f59b5db8f0314881a2c6711040b422421dbcfb3e",
        "53d6e80a82e58b962e768c1f508410aaa3a47f6f5073a8f50aa79319408a1a5b",
        "ea8eea090a318028dc6008de1e383428c2ea625429e84878fe51c04ae0dc1c17",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen75": (
        "568deac485abfab047093b583ef908560cb001b35179c9144ddb2881acfa1c3b",
        "84128a841eb26aa6bbf74dc7baa0ab774ead526669f3c7249a86228ecc2855dd",
        "5782190c52b0b974ab682db70f1f7ac3b7cd9363381dc3f2ba89bca83c602500",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen76": (
        "cbf48c7e2f48ce22845603625dcdbfbde3235022ef35b058e5435105d6cfd818",
        "5aaaa9514b69f4d6b0afec291ecf116addb8d557cefbf3f3d2d84065a05acc27",
        "213c539c102a9d9443c2f2bb1aff6cadf78e6a24241acbefd15af517efebb17a",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen77": (
        "99d2498b48dde67750d0f662155137fa7ac47e69a17510296c230c77b07677d2",
        "554fae589f8a5627a032b538eb95d7018250d8b2fef11cfab0e0f3af76104905",
        "a1d4bfc00cc87ab44241b3398ab5f18b1bd9a5f931a55da9a76bcfb174295201",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen78": (
        "71327c3dae3a9730b11898f1356617c072a00f7023d0c1aab2f92669cc93189f",
        "ecc138b1695d01ab5b4eff1f27b1ec915e4db9c53b36dd0ccabaad4205ef60b6",
        "bd0f27377ed37f1abf34211d78464e0f2137063eed28df111839553e4971ffdc",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen79": (
        "2208ebc83d122ffdbb4f84494a330fa38ae3bbac07ea1fc71b94b8b946ca0da1",
        "2a0a0bc2cf7298763a2ad75fea8eadaea360a3a7c45420183cb9919ea3d6df1d",
        "3505ac2de311c4368b0c7b9f75adf0263a2fe9dde18b85505286981a423dc395",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen80": (
        "d9df58b0bbd03399d37660cc8c8a9899931ee329e0ec3533db80b6c2dafda4d7",
        "6ede1cdee85b9cdeec129def20b538366f7fd9872d9d5f745daecd164244c31f",
        "6ede1cdee85b9cdeec129def20b538366f7fd9872d9d5f745daecd164244c31f",
        {"fuzz_task": ["none", 0, 0, "non-inlinable call: cannot inline @hrec"]},
    ),
    "gen81": (
        "cbeac71a47c9aab1645b0191bbeef4493f6a4f7ad33fc6f1a81f1a873ecacc32",
        "7fc2aadb89d0ecf62554a4141bf0cb7e4975cc51777111dc37297de38eed2a20",
        "04218ca681cb6cc47c41565bdf0b2ffc1c602a1f063d36332495078aefb803bf",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen82": (
        "cf799d11fb972c7068b2c39e00468b1fd71dde44f3b014594851cb573f81ab98",
        "dfc98426aefcb9a9a0a5c482806cb740cec913c5008e18fcb423cebf4d526f79",
        "ea440e9265d50c45b3c00730d7677d8c5f95d4ad5bf23daf06c3cc3593dcbc85",
        {"fuzz_task": ["skeleton", 0, 3, ""]},
    ),
    "gen83": (
        "ae2b4372c4e10cb36d37fa6ebb393eeab933b9493f18ecbde9c09e765e59db37",
        "0610f5648b9c8086ecf627382d17bfc1cc9f931635235448a3cfb1e5d5089d19",
        "1c108bd48457af5f759aa9c74378396521cd7e53f7cd1155cdb41cbd8cf9887a",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen84": (
        "5509dcafc7fbc712e616907c086fd033df90e65c3acbb3155918074db34a49c7",
        "cdf53ccddccdcc3ea47856224acd1a93180c0f35e9a0402465f60f8a3362818b",
        "597abf5df7ad8a0c520dae67f4896504a574b6e230240e922cb92f1cd0021bf9",
        {"fuzz_task": ["skeleton", 1, 2, ""]},
    ),
    "gen85": (
        "f1075d7c8439bd7f9d56cdfa1020ced8e03178325d21dcc381cb762e8685fc04",
        "ce2272927cee9c870913636a1e9985fe3e9266fab7a2ba706b7d60fb58272a3e",
        "a70f41281992a7d994e63ced4bf3788892aa04db75b849bb6ce2860bb0ce3c32",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen86": (
        "f810ab23ef91dd933d6d43811d51510bbffedfbdaa799f6d76341ffa31a49553",
        "4602cdfd58a73ce46c9629d06bd1e379650cd2ca3394bba46817c08eaec2ace4",
        "2cdcc583a40ac13ad583ec583f0ce001f5379d60d4164df1e726109845536a56",
        {"fuzz_task": ["affine", 1, 1, ""]},
    ),
    "gen87": (
        "83dfd6eb458605aff60891cec161f6685dfe0f02b31516a38187800810576889",
        "b8ef8d29d62b51cb7601efb6945a69f6d56af181589472e8f5322b43016861d2",
        "aedc8549a04c9978e060ae2b08e21e7d08c76d673ec35695e91e7ef3b3c97479",
        {"fuzz_task": ["skeleton", 2, 3, ""]},
    ),
    "gen88": (
        "e670a8b2041ffa532a39682f496bb993fb09cbba7c9d53097ddc1d60bb2a22fc",
        "d78c0e59866ad5127bfd852c8d87d0b35d0c57bf6fb3fd84f8011bdf98ca6685",
        "aaf6c38e5123ca497f5e555d3c817165be8905d35680f48cc121f983f9bb58c4",
        {"fuzz_task": ["skeleton", 1, 3, ""]},
    ),
    "gen89": (
        "ffb249c41ab7fd7fbbb7677cdaea39e699c7ea4045fff269b59990dcd6ad2b1b",
        "7cf1df7ee13ca23ee79e6f32cd72bc9fd0184290c27a6defdc1ccd1a71ac8135",
        "b7ad9ec77f8b174a9c66655ea01012730db6ba7a84f33ffcb7d2cec3723b23fa",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen90": (
        "f34606449cfd266cb9cc2bc43b4c5562bb44ffc2be96ca5f8fa872dff9d0f804",
        "b8592b82744dba4f172c7448bbafdefbcc4c49da5e5d759da82a6d5e61da8e38",
        "51d29c1643d745f6ca8ebca52e0b620c779543085e078696d22b16f9d6804dd1",
        {"fuzz_task": ["affine", 1, 1, ""]},
    ),
    "gen91": (
        "edb6ec80711d10b527393593f883ace0713e9b8ec4709923ee75809db064c0b9",
        "eddeb8b84ff810db6ea5dc80345f2e2fe92b70348af7cfd690180f1ae8f5995d",
        "39431310d9a3a5b27a4757d5261192defc235dfcc8d732065cfa07a9df125b75",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen92": (
        "8d161bd420f2af4ccdeaad13d90eb74f5b3e3b7ec3e33042e7cbb0de819f1d7d",
        "3b5a9af186c6d0dff0c1328907434b5f08a324ec985fe0b9d2a64927d5679aa0",
        "69c6f67da0604a87c0463a7d7d3438711a8eb8e66a415146d7a6f6018f7e78e2",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen93": (
        "2035e35bec7ed51b843566a260ab1fabe8fd257437b5b529bea5c34c3b838c67",
        "a8a1715657a7021dfd41e1ca681250739be65bd54c3a2d7d5616c23c819b831b",
        "ba0aed9b444bcc797bfe005bad65e576341b1ca7a12d5ec9c2c26919cde56a87",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen94": (
        "746a6347b5217768a99a86587af0185f3d281a8df436a3e2585725fbbcf2254b",
        "8f9e10667c56d8261d11bf7364255ff99a8cedf9be430808666415b93a48b46a",
        "9831f4a15ae5ea49a0747bcb606ebe58cbb0fb35368485e35cedf793f4a4a45e",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen95": (
        "d6a65879928dd855cebb038e8ea7c7a5276537ac5be834cd810f3bd30ea8e6ab",
        "254e1a9d16fa15b7bb1cc95cbcc6e7431ad7c2ef707a7ad37b6df21996a6291f",
        "d60b28ba82cc22774f8fb426797bfe3e69cfc6b0cd1aacca68aec78936bc97cd",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen96": (
        "d0693be94a80bafafe5f751d89b12b735dfc3eae099d25e38d5f4ad80e26876c",
        "42f569ae25d1a89fff729911a55ed7aeab8d3ae42c89aa63cf2a2f220fdc87fa",
        "f8a98c17524f63dd0d6b8a04b59ac7af36af1d01c6e21af8850695d24db04a03",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen97": (
        "9e7be8e57c9b9d41aafd691900175d1c87d895f1b01d30f1b6c327d75b3fc7dd",
        "efab342ad1966e83f0412a26905a1aef858ca6a6093f8e8055f473aff4f36ede",
        "4364fb227cbfb05f03b86187b6b5eff0af429f19199e29313c2ff055c3d14274",
        {"fuzz_task": ["skeleton", 1, 3, ""]},
    ),
    "gen98": (
        "d647342b3a3bf5548c50a10086fb15db18cf704a2332ddb5860bc010bb9124fc",
        "89f5304b630d53a381becbaffe436a598b004bef726683c3f72726afbc619096",
        "7ffd9e6cbecee7e4553ac70299b54abe45635ebb87659b6663968d08b8b7dd27",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen99": (
        "9e63874d8aeffc0ea9962f41f7666ad94d74267bec4fc376f2ce4bd0056c123a",
        "75b4293d3cce891ff77537806acc08aa63ac8709263fe1dc3f59e5981d61a478",
        "2ddc99b02f344b4d6f17438e8f8208fa6b11d748e30d979a7504a4d50b52693d",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen100": (
        "05d26cddeeec6a4a23dbc8f2b292109afc49dca85c1844e263bef894edb5aab4",
        "0246815958aec454a9e491644ba96611ab0843062951d1dfe4558878cd4c138f",
        "a41b161ea57fe27100ef1420c3383503a9f189ef459d9268c63c5a2f66cca262",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen101": (
        "606b75ba9cbeb0f54de39a11245000621ad5a785157c8aff2e2a63a79f75a661",
        "83ad0cf7161c061162848686f7f00f56417853cebfbb230fbb684f93b5afb73f",
        "628b33d8de24be76fc7c6626148f503aa1268e49a368a2fabf65b2f5f3f1a304",
        {"fuzz_task": ["skeleton", 1, 2, ""]},
    ),
    "gen102": (
        "4d3c0b36792544aa21e3e36be9f68462a577885c4cf8e5ba0f9681eb99ed7c13",
        "df5d9679e0e8596b6f30766160cba7c8cca5c44855d79813b723fb5d354bdbb7",
        "bfe9e03b49b32e862d591802d74fc8de6c7574c9cfb46953b211f09eac684297",
        {"fuzz_task": ["skeleton", 1, 2, ""]},
    ),
    "gen103": (
        "0aa98a1f6e8a2aa456fb58b85fdbbc6f9ba94e204cdcc9332de472d24614b20b",
        "a9d22e6d7b93ce5673271706d6e52c89119268ddd195d7150c28ddb609ff3c33",
        "b776cdc5f124cb2bfc1dd0b29f557723f0b53cf6a0e484027492e8e8add3509e",
        {"fuzz_task": ["skeleton", 1, 4, ""]},
    ),
    "gen104": (
        "d7a89509bf2de29d9faca9f5ce92f16738733917a5b93a6b09fceca34f887966",
        "125f72c795c4f0fffd7259d6d258610f14f3624d637a87d5c7773a37d46d4563",
        "c895a7c3663cb97894ce266f8b51f2bb5bf86fa6409bbe5d709065168170b3f8",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen105": (
        "b939b2b2bdec789dda422585684daeaeba8b617abe8ec874df4ab4c2744379a0",
        "93e671100cddcaf0d3ba1e3979fe121268815448aceb5d7672cff8ee392b5007",
        "53280815652bac830b33f0b08c81787d3b30f5017e52aa5d92a486058c7599d1",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen106": (
        "eb7ebaa463d7f4da4c5bb34c63cdc12b8e982e55687e7d5800c7a8d9557b3109",
        "110c3122cfd2cbe6624d39d7b6b69c6726ce9d13495ac4fb93acfe97aed06b78",
        "cd8230f2b7541b9dc170fcdb0e06140128af743ba7f76de26c3e8fc496b5f43f",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen107": (
        "8876b2e519460d8f99040af4038b1129e617553b7ebf6d0bc50f0d220edf06ee",
        "2b800e9cdc3d08093ca97abe0090a788ad81ee8ef63a493fc1e9afbca7076e46",
        "2f4084c658ac948411bacedf9fef01e067551f2824acca02bf56d0c22adab22c",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen108": (
        "09f27e3d8e1b0c5c57bebb32c3c6310054ae36cc6d354018db1f9bc890a0db49",
        "a938e0f777b43dff8c1517316811eea4515076f8485dbdc5a483d215e42bcaa3",
        "1f70f428f08703b7a1b27939972de0c3976e4ce01d3872b5b802543f97adc4f6",
        {"fuzz_task": ["skeleton", 0, 3, ""]},
    ),
    "gen109": (
        "4a764682dd9b6112e548ed1e6d418e0bfcde61c1997c1cf5d855437fbbb687ce",
        "936640b1ae8a7cb9d1729dd346bd152d847e8f352de00eb82f2a8c9d6e4d5be8",
        "f4306eb801a35d6472957e102fe0132e87693a4d91cff1055c9981908884593b",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen110": (
        "d5fcdd381a684762f6812f97485401665d4cf00a6eb3152a50cf96383df1ff34",
        "83180c1ede65e03b7b713b63d9f678f330b65bc39700b03196b205d45e8b09e8",
        "072781923630572b4117a5c162665c6c15192d78af6fb5d437e9b690c4f1a078",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen111": (
        "5d47b8f96af7df949a80f28f28e681a6bfe7534f387bd2759ef923d02cee4bbd",
        "b3866ec8b620246bb73d50c70ad1e6c5c3317c6a6f32f7e026e196c91a273143",
        "17da5b46fe5a528130b222d9a9cf505e405cb915d1a28286d01e425332e897e9",
        {"fuzz_task": ["skeleton", 1, 2, ""]},
    ),
    "gen112": (
        "6daca9fbc63eb22e04f85d4ed0aa3b3fb4026abaaf8bf6b37bf0177978b69177",
        "40064bac4c3326bccb44ebea7e02be2a45ffaf978e49ad364b499dca26175f91",
        "58ee78f1438a237908f8c109fa2f564e908962802017e904853cedd872998c1d",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen113": (
        "e88f045cdd4f942602a92c33d532851749a548587f383ef0115819bb22da5e5f",
        "706193f2eaebaa787f23722cd9788f9def97feb96cf030cd5649172270cb946a",
        "df714170ccdfcf5a2c6eef0df654731f04e0e8441ff1940c24228d8df7edf3aa",
        {"fuzz_task": ["skeleton", 1, 3, ""]},
    ),
    "gen114": (
        "425c7a26aa74cf21bba5870fcfb15ca4a1037668299971e03a81de62539ded99",
        "3ca2b68350c02d6f009352d3413c7fd1269ab997049991084a450420fa722bc1",
        "4fa3986f17c7c70a4116308b57c9a9df52103552138dff9d120b72d232f227c2",
        {"fuzz_task": ["skeleton", 0, 3, ""]},
    ),
    "gen115": (
        "5902a94c493d80ceaa4199258cca40a26bf4bd08af73ef310939cdf879e77ed6",
        "ac38f21335e31832c793e2bd91ae455cdf9c226e0cb5a28758e5ecee2b86524c",
        "2adf9f2a849b7601872ae24af181841af97a1918ce122a6b0b26507c61a6c104",
        {"fuzz_task": ["skeleton", 0, 3, ""]},
    ),
    "gen116": (
        "0cc41ee40921d2b67bb3c5cd6417b3819be8954ddcce06ebe98580bd58fd81a6",
        "4506bafd122614ddda67039d047cdbfde4b62f265721941d76aa2c901e6aaa83",
        "2c63749393c2eb8449e81777994b4c1feaf81db141fe4b699f1ed733e57d4724",
        {"fuzz_task": ["skeleton", 1, 2, ""]},
    ),
    "gen117": (
        "be7514984f3888a791bd10ebffad0c04790de424e725ede33c5a9e5c1914cf77",
        "97212664f7e2669f77d4ae4e4042ff8e51f3c89d20f48409c1d4114d9c8ee3e1",
        "7a78512c093acaf15fa6877982470ee01d8a0d4eac0ff0e639a7480431dab726",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen118": (
        "e097e6d3e51566c4f2fc472e3574a28563c0648789fec58a5182dbb64c5d8b70",
        "ee2e5e89282dc09f001f7220c8720c536d00845400011cfd816d3f1e77c893e5",
        "1dfd651a07dd7c95c1df908a52b63d5f17fb198952c2b906bc17dfd85f836586",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen119": (
        "78f5f3fb1202463b65bb502059c3456b111f60ce8b3057bd75cd42276a35a64a",
        "73f69ec4642956e781b83c0927d10ac6b3362c6458890050824e87355473d94e",
        "f10dfc0df4a0be83d615e733d1a540c118396d1c7aea7521db6f741a0a1e7ca6",
        {"fuzz_task": ["skeleton", 1, 2, ""]},
    ),
    "gen120": (
        "c292eedf6809e105f59590c667c061c2bed37498f597c42df2753b1da87a3817",
        "bd40f89dc8adb8eb7809c489d77fe71f5a780231cca92670d53295c5ae50ff8a",
        "7d48672221eb1b529fdf4210b7b9b9404fce821ded8a982b15af3a2195a77a62",
        {"fuzz_task": ["skeleton", 1, 2, ""]},
    ),
    "gen121": (
        "71e237260fc88609b2a3e7d49080a60819dd5eca7dfe5f37d2ac25c7254a8151",
        "a53f5e0f43569151bf2e3122d6f52eb2feb3f53bec75884727b32b8b9665244f",
        "874e307d74906769c0a8cd583934284175188c473c37e0c016f0a90f7a37ea3d",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen122": (
        "052aea40dbe532857aa721f2deb5504bb8471bf009530ee1c55a39783c0806ed",
        "bb2dcd735aa4e0d50a32ae38a6c54b47c7828b137677a18831c9a739e2089e43",
        "3e39a707f6108212cd2baca7331d7daa8866e5217380bee9e52ea5d4436a8cb6",
        {"fuzz_task": ["skeleton", 0, 3, ""]},
    ),
    "gen123": (
        "4757d96e15b3133d8aa048564a6fbf5a75de0ff59ef931d25101440676462828",
        "da49df3efa734ec2a137e17e827f25ab48fd7d5838cd49b66a91022a1fb61697",
        "6c630c7a4e1092387b84857775c837f21561ad73b6523bcc2a40c2a06feee677",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen124": (
        "d2f0207f8c90f4d6fc4151bfe6a9c81888b94cc99752b1103c263fbe284ef0ff",
        "5fd4f5bf779dc9ec25745dc9a137b18062f90a597bcd12fcd4770e3cd31be27e",
        "f7cf678e526a30d98f2a6c9e09da7fe43d640351f24608e4ed353d34baa34eef",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen125": (
        "d871539b3fae85a349d3744fde16e5b101a9534cd0ac61093bffcc429a301d97",
        "757683f8e8271e9bda77afad0b050bb94749b870ad66e82dd7a46293838811de",
        "eb22d4c8215a92518168abd102b29c3125a64f15239f6128bc3eb4ee07970dec",
        {"fuzz_task": ["skeleton", 1, 2, ""]},
    ),
    "gen126": (
        "3fd4ea693ade257fe68b8b12b10e4e0b6a9740626bfd1ae3fee823ff5c7086b3",
        "30e1032e90e4cb034f27fe21031c821326de1414745ef63b302cb060802bf554",
        "2f7577800413e27258c9ee738f080dec200a7ef2f697165fad264b35291be605",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen127": (
        "baf59c92ccd0d9c005caddfe183d2ccddbe55cad9b32564e0165e3ca319d9b4b",
        "f6369cce70d8f5ed3c242ceb1a91e4e8f2c4c93fcbf56443073d6a3a33e6ab4e",
        "1c065290cb58cf1acd29f0a246a613e1083d0c0094b7ad9571880880f8950192",
        {"fuzz_task": ["skeleton", 1, 1, ""]},
    ),
    "gen128": (
        "4cfb87c0e8e0865e4a2972a232a1d445cce4e405496a5d4ec89e460498a15fb9",
        "7d2cb29d42dc82c6cbc4f11a6c2ff57b735751162bde3bc0dd851dc1ab22232e",
        "0b7e204f14cb2be011d7c99160cdad3ecbf20fbb819310aa221fcbaec85c2717",
        {"fuzz_task": ["skeleton", 1, 3, ""]},
    ),
    "gen129": (
        "2bf3115519de4e7e43de07d287ade84fda994a41dc3a84a2960bf38344baf2b2",
        "2fa412888a555ac024b02c69890a7de6f1712a0ca5d3c77e059b2986655308af",
        "7547d9cc5391f1fa1585265c5f22607626f78fb65ae51543bb53f09416695aa9",
        {"fuzz_task": ["skeleton", 1, 1, ""]},
    ),
    "gen130": (
        "c4f626e0e567c98c5a7b489c992ab1fcf0e7bcd3e79386e4b6401ea441da781d",
        "0b25e544847c02a0ea7abec108f35ca1af743f80d9ca89735ad023c7416186c5",
        "480b4cc5b95a1cd90a2ab13869fbbc318fa6dfaeca95b87b0c4098228bd570ef",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen131": (
        "dbbcf25d767e17873398c1a1fc57b61d21c6c3dffc82a32e658695359d8385d2",
        "6ea2ec376a0cb6ba357af93ef49f439fb908f7959e1ae19a3ddebcaed7a4a9e1",
        "abe25d2835790ded1e18072cd280306b2736724de71b23d130c8fdc580d0f1df",
        {"fuzz_task": ["affine", 2, 2, ""]},
    ),
    "gen132": (
        "ce6c3c613cef65dcf8fd490b6e0ca3840aa3a531b4f5c324575cd8ffaafe600f",
        "2111843ab7c3eaf7dc7110c3bbd110e18a18d61956a071ade576f33cb041244b",
        "d0672b13a9ec25f9c8f66a2610705db8ccfaab5386e2477fd32be45348d9e462",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen133": (
        "243abdfc1b08cd757c585f40a8b30e13499fd86f2d5e9748d280a2b307081aec",
        "c4835c2bef6bf8576e8212644f837f027fded13d2707091a4dbb10dd58e9eaa2",
        "462717dff71ced42e46ab2b3e0e0c58b521b63451bf1c87dbe73f7604d8546d0",
        {"fuzz_task": ["skeleton", 0, 3, ""]},
    ),
    "gen134": (
        "a71e47fefdc7b55386227584e70b5f56749517fdbe544411fc5e0008c9caa54e",
        "413f8fb6e475fa783d5d706c6b5d24699bc5b6e5123c79cfe8c85cc99ba2ad3b",
        "a4faac7ca7d155fcdf6987dec071e491dd3f35a40b3ee4ddf04065feb653d09c",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen135": (
        "6b0fcd3f893d885515f82aad150f0edb2b7f770bc36f979c19891bb18db5020b",
        "18327ef9eea2557cb49628f84ff0ad026c61099dc56ec68f601fe4e42ce2cc05",
        "9a1e1311c25883d83862fac3b24793b38d017803cde9e797a7a5655517f008a1",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen136": (
        "a178438520ee2d7eef6c51ddc6bd35b4ea52e32453d57364f23f569d576e1e16",
        "8f061579a36aaa7ec5e79a1ed7bbaf88d575470c3923356fda34f9e5e7807abe",
        "af54a409e2cb11950cebc7d8a771843a7b8e98116326b18a44b6fa138f020a23",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen137": (
        "c91201b3edea465139e3a2693c70d3c16607f9687d86eb2f2ad6f1d7622b706d",
        "4f261a5a2eefb8db5e37323a20f3bb38357549c1105288cd59b39be52f1ae927",
        "fc87876f2e253bba6e12975e46ca40bf147302ed64b20b95b1925c3247cfff75",
        {"fuzz_task": ["skeleton", 1, 2, ""]},
    ),
    "gen138": (
        "c19f44398679539d9d3236b593e26246be4780eb1aec33e37986ae83052b00c6",
        "ffd10eb914e50a347bfb314cff508d31e182349693c079f5b5c5926cdfe0a673",
        "1e47bd7476c4fffa14407bd009b554a8970024af65da494dd92b5815bc0195c6",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen139": (
        "34c68f12ed25e438dd66a6bc339174d1fceb74bf49e6bb9c0e3e8f942a9be996",
        "b17861c19e9646a539a50f1c1044c65c7ea63c6645c9a00b49098b5d5fd141c5",
        "10acab715369cd7f88d9226b8abe950ea99494bba619b335510b03865c850fc1",
        {"fuzz_task": ["skeleton", 2, 2, ""]},
    ),
    "gen140": (
        "8af97799983d755052447abe5776e7e12c25ff27e7900e1d02a6578487c7339c",
        "f415f0d4a06da5d110c27261204feac037552b1a519d1ee3a4d318063e350c2c",
        "034998aa631549d3b11ad420dd0c9643345ab1617bc354ad480c0eb8007e92c8",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen141": (
        "411578c9b754e5ff2b03024f57b178f0e2a2831c1a8a3b902e22f74acbc0923c",
        "21e4e3f8c5f488e4c54880c36fc917cfabf668b61b9dd588775c19590d83f33f",
        "d5ad064e411e4089877f15b13a0b28e8447307cd795ac63cba8ed5451cdf5a14",
        {"fuzz_task": ["skeleton", 1, 3, ""]},
    ),
    "gen142": (
        "5b8403de3671755c8cc746adbcda9fa00c2cb0c34eed55d3d6c4fecc4c78fc1b",
        "87e77c4edfa1b2ea131be0b75f04aadb7ba57e1edfe8e89750791543f03ef943",
        "f2215133175572a95adbe4749acb6324b2e2cc0df2e0dbce74637f5a15e4e6c8",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen143": (
        "817bf4ae0d62c1523cf149d59349d6914e99936f754a2e7901e8593cb1843ed0",
        "10e70d365a1654f5f65bfed1f833da6fa8f25f7da10fca193658a84b17ff8c75",
        "721a42b4407ae19d1627d145b4071796c3e08752210a41ef8782870eaa6c732f",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen144": (
        "31c94d1fc0f8bb12bd51fb97809dccb27dc0f8632e12a8db39b5c2b0617ed9a8",
        "32a1cb76c15a9b9842d6335d9ebb9925af8d7d94bc382392101ecc9f2ac62c53",
        "5d40315eecbf4f8b5ea187b9733ed0e035abf321ef873c9688fd7557cc278f06",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen145": (
        "8818855822fcec1ea8fb12776c8ea73ee9294dab5ed4270c67b7fa05c5d65f26",
        "c699f302fdf36d3e7f59113756478a30624ea61de0527f5ddeabe84edfa0ff0f",
        "0730e81465d028df14ff5c80c15ea1d63bd44f9feb5dffc66c49dbb66a05823a",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen146": (
        "2e48d6b37f6bea47ee668b494b49f17de11afad034cd2f61665dc6835673c554",
        "c37a816be25e6bf57d53b69bce0d22e059005cd342aa2d48b77fd2a06fe1637d",
        "9625ab201ad1dbc85f47c7ade767540b9b773080d488cfbf099046853706faf0",
        {"fuzz_task": ["skeleton", 0, 3, ""]},
    ),
    "gen147": (
        "9a2813219b3eda7280f74f11d355a8b297e9a2e32b86d8dc123082003a561bd0",
        "2aad8f8fefa03ce69c899bde89e73810e0343d1f7b357c8a92be3b3bb214aa66",
        "56878f9af3a6ce90cdff37af6d6baf48dd75e28423db3fc14f3b43ee9daeaddd",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen148": (
        "3a942cc983b3a28764a66625e3c60a358ab55437c3cab34c91984cd7422aec6a",
        "a2dd777dd40f0ec3855563a23c8425e3444a4224ce99a61780e5f91f6024dad0",
        "f22aba391b7f387be23dcc9bdb48d2f0e7b95ac11ab358794247e4dfbae94cfb",
        {"fuzz_task": ["skeleton", 2, 3, ""]},
    ),
    "gen149": (
        "8fb648e6d5599292829c6e707aa47f19492602a02b462210abc93dc383658cca",
        "30752bc3e508169ed71ca8288b3bd2854009d3e45c1b2bb4d2aa0a74021b532d",
        "f64f9916c8be0b9ec7c42198a4bdd8d7e4a75ecc6495428f7e134a739a46dcc6",
        {"fuzz_task": ["skeleton", 1, 2, ""]},
    ),
    "gen150": (
        "1cc1f7ffb7708cb29595f86789ea28ca570db8d7690d7651eb521efdb97a65ca",
        "35f7feadaea2dff4a967d6c12dd1edc2f6d17f783e2ec0b4e1ca61a8dbebeaad",
        "99f31b5596089fe3233ed5b5f1e5578624401a93e826ff98017bb71a1c14261b",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen151": (
        "b87fceec79fe66af6292b54e053556eaadebe99e7208d589727a09e8a4637a4f",
        "cfa53dcac072bb41fde4626dd95bc51c835024d156358f60db118fe994da0661",
        "733a2c0c2aae19556df6c63b56a764415b8926f0583fce9a904c0e6d2984c6da",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen152": (
        "e3d91e90d56053fc4b5cb928c089550ed8a161cfcf4f348cc040a6b322c6d8a6",
        "12ca57d0300f267107eb795074b62b79b2b9adbf72532ce8500323811375c616",
        "bbb2e6beb9b92c9c7e16bb48158d9b569283c25cd8dbebbaf8ef076849ed21f0",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen153": (
        "bc9d550cf37f908b2c75d267079d3146a67e3f2c99f1474fb72e8c5687c7d134",
        "194eeff6f1d1306c36b17c64bde3970d3f5a7cfc4f077bfdc66dee38fccd4f98",
        "ea1da4cb6c1e8570b4cea46ef5915e9de480815cdc0c8d221381ea66f2a3bde3",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen154": (
        "86727bd66ae08e3713cebebecc7f37cefd4d2abd0de05ee88ef3a381009fad97",
        "99d760172ee07eb9e02156482c599156cd839fb56d2de9639a93a2ba9a89fa79",
        "a75ac8779ffc52a11dd23cad16a623a0d5ed2b1b567791b35e105e8ac1468b46",
        {"fuzz_task": ["skeleton", 1, 2, ""]},
    ),
    "gen155": (
        "1a2ed6e7205b828a61153f77581da70701ba6402466a4f91df9ec15f25f64fe2",
        "9a09f9c6bdb249884a4d393ffce136092139d315b1644be334b1f18e81e598d3",
        "550ddcc2a192fd0877e6d1347ccde698d0dd66a9e244f8e2e9e4472e27f586ed",
        {"fuzz_task": ["skeleton", 2, 3, ""]},
    ),
    "gen156": (
        "f1f3ecabfabbf0c86bb18f54aa2fb04b4bf800189c33fb51c0042709a5d89880",
        "067bad6f48d7462b79e3a6d0eaf086c4832fcc794d473a5decd61af7da99e994",
        "cc107b720b3c9f92c93f35f6468258db75e603e24717c4ae680a47650f9f39db",
        {"fuzz_task": ["skeleton", 1, 2, ""]},
    ),
    "gen157": (
        "c3215901534e2578138896b71e92b0513118b1ffdabb6b59c583dd48e7c0e0ae",
        "85317f9f24c8f26863334c40f27204e835908b45656659c08b87e02ba4c65432",
        "4f51c339669566e301d0ab2b732b68054e0ad552098a030648046b4add561dc3",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen158": (
        "6f96fcfa4f80b15cc9af2d24389071af1e2779c60cdc5100f6a6b27bf8b925e2",
        "387834e515240531df3806315e5e1a8d82b157f0d1d576d9fb8a5ae52adf156b",
        "2c7697fbc0a31e88f4491208cffcc9d542c2ae003ec5850541a418a8e17e3cd2",
        {"fuzz_task": ["skeleton", 1, 2, ""]},
    ),
    "gen159": (
        "9edaa6d1d27049012d369db152b7bcf9a2c8a158b765e68251c926b197bbb00b",
        "ceeebf7c15206f8e5c22a1cb690049b1a310406b7b2742ffdc45eff99c44fc44",
        "e43253154c6bef50897870e9ca3204341a22287fa00437d84112e2b8c9995a2b",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen160": (
        "afeaabadde8cb26737fe95dd7348c74917bb2a6ad8dbdec04786fe8d713480e4",
        "4cd1d72be55eb57c1e7cffd47958427228fa054537007ffa9d1b60e16bab6abc",
        "0683baf6c7083a2b64126c9341f8a25ad8b7a850536bf993685337c370570087",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen161": (
        "e7d457c82a8fc3196a85a05e383c6dc8ad9589ca758fab50914b451a5fce02da",
        "e78758b533a308eeebed8e7a82c367f6ec7686d42463e009365b9d5c079d6d88",
        "da786f0ed4f8f4b5fb36d91f0cdf874cea49f1ff2f4ed314c64f79af6e70c2c6",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen162": (
        "5623c6dc2aded6d05bfce8faa4838b4ae91a2ed6a977260f3279f3eaaffad114",
        "66fa0a40f4074e82a3316e10e247973591ac78d30a7922106da640a27c2ddbe9",
        "ec7da5460f66dc82bbb11063a91426f74bd48829df3ab4bce5f0c0719dbe4231",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen163": (
        "1c23f2a130fd2255e913db7d6b19ba33db49c94b70149c6240bb6df1fe47fa88",
        "99dbc83c2e582b75d10b7e5a72a871c59437ef9d0c4a51d8676b74f3ff43443f",
        "bba45781957b3ffdb65c2c0fe0e7945ac43a4087b338b0354444ab840e950bba",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen164": (
        "33b66834a2d8b20c5706287665161f1458059b10fe68253a9ff78cd24d7ac4fc",
        "13eab37d559e80f3f35ce34ae2b627b28fff526a1d84fdb8dab8f9482362306c",
        "6d866cb118652e4f2b299b9d0302f4da3fb8e606141f5cd2fdca8455e520be2d",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen165": (
        "cdafd95ded13a10db29139a2e7a129fa7efaf66a56c41ef2f3f2a0a653356e5f",
        "bc2bedd22a13b627de9b54815fcc165f54230c4644650545a82cde021a92db40",
        "0e0595c1652535047172c1ef103bc0c999c51d4e1acf1e4607e4f9cf0d97f36c",
        {"fuzz_task": ["skeleton", 1, 3, ""]},
    ),
    "gen166": (
        "6c891af466ac8fee15da482a9b32615b780f995eaa0c9ce2983d37623946cfa3",
        "d58cb7cbb30789c80f801def9101dde44d1bf5258cdfa745cad0abce594a2776",
        "98f27fd24e7ad0f55440e2f44d484b5c4beefaff7a044fad3ec15943d7b53e48",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen167": (
        "e02c281f937d58620c2fc78f19a4f129c1f3d622314c4df0ad07fc5dcb73ef4d",
        "c851521fbef1fe0cf522c285460b723d044a8d3b233b50bf990e09f9408127de",
        "13c2ee83a6010d8a21fa99e225985683f4b5eb94280e660b2cda5771f8515813",
        {"fuzz_task": ["skeleton", 1, 1, ""]},
    ),
    "gen168": (
        "1c03a27daee1fbb7b8aafc5e84a94627a350ff16955bed1d5df1df06ac6910ca",
        "e24feecbf3847033d115d7e6054c4a88ac4140eed1f1c0ea8d84e2b60b0b3d0f",
        "f976589be01af1cd18993a44c068202833b9728b95a40bc1092be87d86790d1b",
        {"fuzz_task": ["skeleton", 1, 3, ""]},
    ),
    "gen169": (
        "88b553c72c07fb15e0a250e0f2d29a22ad3f4022d93cfd95c8fbc43a2eb6d124",
        "313b6b5bdd21bc8681d047d3a25b47730785624e2f91a12322379c07eb4deec7",
        "b57b626dbf62b7643aa29afc988a5a9d7836f755c63ce669b0316d32c87ab992",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen170": (
        "dd0167a99f2115a64f2b8f39ec8c805b29189e05b8affc8a04df5e80e4bb21ad",
        "0c2198439afaf62c35b5c8f04ca2ab1e63f87ff3d6030ce8a33eda81f2b42000",
        "d4982dea40d0295ff577b257cdca563f71f0185c3c15b3fedd8ae0560eeb6ae6",
        {"fuzz_task": ["skeleton", 0, 3, ""]},
    ),
    "gen171": (
        "a855d3cccf31c8e50d3b0a43b47dfdc30d64f765a902b2f8cf4410e3af1d223b",
        "c3ff42077aa2663d19344a4e8f7e1a588b4a12075dbf632ebc56a93808e08030",
        "fcf2b9d1bfbccb201a63f93e02a8abdcd765f9e534999a510aed2077f57be535",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen172": (
        "a2011d892c116d68683cab4c6a327adacc44501604de24c148bc9e9f3ab50087",
        "e7304d7364bb6629d8602ac901e563527ca1840634dfe1250740b7f283154144",
        "772cfd5c52053244164aef1111b6fc8f3823a75f22f2bd7d103e25e1d6169aa6",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen173": (
        "04894980f35dd3df528974066636356379ce2ee30b9d2c712cec88c20647a99b",
        "29c244ba02852e86faeb9d5d8dccb03c558ba2e23544ae29861f20bcc10114fe",
        "ec0b4c54f1c0440f3c0dafbda793181ee0d5d91b96c0622921dc6d0eb12be62b",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen174": (
        "57759a0a064b87aed482fb3ce2f578877164d526582a9673473320dc63d7e001",
        "9d4404d5e79d431f36d87c418e13f97c7515bf8f7d474b0390b312e80a5a08c9",
        "85be2d9dbfb47f9fa4182af0db3e7dbc46e810af0db6dd53eadf988f511adf3f",
        {"fuzz_task": ["skeleton", 1, 2, ""]},
    ),
    "gen175": (
        "216889b82b7e1c2b7656144080efdb391a45ee789aa695a83120892662598b0a",
        "b2e0901e7be175e5a0910a8acd0cea3053bbcc8d4ec98997d0660e012153b865",
        "f69975f5a868c67906b1309ca1b88dbabbf3f3b4dff303e12dc35020a2b41e8c",
        {"fuzz_task": ["skeleton", 0, 3, ""]},
    ),
    "gen176": (
        "26533343b362e0d14bb8d620082c549ee7988a7b80ce051cc2c6caf79e79dc0b",
        "4a0c00c3ac243d376b1bd6ada51bb27f4a4ffeecf708ec022092a5f9e9278029",
        "9ab274296676b3ef469a73e6767c2db3fc4e02546b8febf63bef51e0e4395eac",
        {"fuzz_task": ["skeleton", 0, 3, ""]},
    ),
    "gen177": (
        "12bfb3174a18d0f532ac35f5fbaddf6f0e38bd6c8a48f32f76389de8fcc1d36f",
        "0359b28cb16df407fb4a1582165d20c7a368943b8e8d7ccbc2411a676d266167",
        "95cf05cc86c98f757c4b5965b606770ba7239cbc7643224c5b9768914ef0acda",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen178": (
        "b6bb3fd76b40cde8ceeb0e7744f2a793d1d960ce58e95213021cbad72326cde5",
        "6fa837b4a491c8be359d21300ceaf3151b4ed0b350c89291db93441bde69a142",
        "a4352bdd843d32af00151ccf6115854e556333099df359f23bad2b24cbc84c1b",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen179": (
        "443b7096e577433c0a4fe4ff539ce268168e67fbcfbff374a662ff9b0ed78704",
        "dda8aff9d883ef4fccb6b2a2121bd82a6e75c1de2ac25826b1be8fe6c422c9fa",
        "3dc50c49efaa4d331caeab64b02a3ff3ae7473e694fbbc8caebc30b6bea05d21",
        {"fuzz_task": ["skeleton", 1, 3, ""]},
    ),
    "gen180": (
        "9530bc0d45d469d24b5304679031b90142cdfe1e0e578892cec93847b51e2c14",
        "24873b97bb1eb743a78f90183a0f8609c49cace4834974eb68680e8a01649f2a",
        "562be4c806acc38317b80a4917987f5ff1fe4e5270c2931ba9639ceedd757690",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen181": (
        "1d52992b1018ff4c592ceab7832fa152ae7a3fa86097c61d8be331af15995fb1",
        "21dea1c6b0add856375d5e132cc00f6245e4b0fb5ebe78ecccbdb4ba1d5fd7bf",
        "68de0253dbda4261ef9bf71beb8aad53661def69ea2aaf416c07f3f156c080df",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen182": (
        "bb58b53b3183c7892c5face3a1e5fa0bf29423e82bd1b59e36c39867b9c0ca33",
        "d159997abf06553c0db580f028318c35b87b6a7272289fe4c290b292b2177f08",
        "2e37f55f7fe741ad5f173cae711f75f5348d8b6bd51a726f37873805d1136129",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen183": (
        "3480a3c6e0b90e5113b74cea1c94d2089641eb635b9dac378fecb50ebccae83b",
        "53e476605afe75900ca11b2bcb5505880d4c407465b7d0d3dfe44772a4ff221e",
        "9006b4e87d2315745a48c625d2a1a3084269826ea7042364843b885c84596372",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen184": (
        "3d123e91fa283e1358e1ca4e7460b0b178841e4749dcc33186b29d9fe3f77525",
        "ca095f12bff69cda0e66800d5792c3c492bc47d8baf9282bcb2f01cc3e189801",
        "c1267c072a376a927fea3f400f100523531b8119944038d42644be23ed3e7d59",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen185": (
        "afdf9b357c2cc1f4796fb7121479c91cacf91beb5b2c140355ed8aff4fdb469c",
        "917580871cc7a9ee8c4c9e5585ed9b5abbe5e7324261f424b4c81cc12e69cfd4",
        "1af6b6dc4a7fbea728e0eb98afb385f5c1ee035d78beb08fcf105a9bbda11d60",
        {"fuzz_task": ["skeleton", 2, 2, ""]},
    ),
    "gen186": (
        "b1259d459c5fcfaa4c54b38a819911561542c2e3e70d6d28039aa151dd869a85",
        "0ae865514374775765aead66b2ba649083ef756317e7d6540ee5c064af5a4e48",
        "c447d05f25ba4ccbbb6e710eb6d9811e1d2134f177a24bf0722da57f6f47f5f1",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen187": (
        "64af06105a8577bd87579ad6d5d2de75487eb8c80a66596da9ab4a2cea60c5ca",
        "6a8a616a3fcee607124b6f61e652f72a43e295382b4bbcaac33e38d8d5d7717e",
        "321826625d747d7967fd380ebf804e7ace38774af10205a10394fb3d8cb37cec",
        {"fuzz_task": ["skeleton", 0, 3, ""]},
    ),
    "gen188": (
        "3ffb94430a3181e8101d9a63d76ccf1da11680773aa57bed27c2d45c45eb5bc8",
        "dc01bea021da7eb34cd4900f1e2a9b8f617c0be600d94dcb8de03ea5cb5e52af",
        "fbd13f54bba32b88fb271bf2cdfa08a2a0c7e17f7bb985bb8fb2dd53aaed0d89",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen189": (
        "2540d8814291e5eebafe0c21c1554e3d422f8dc42cff298ec98a3f276ebdc1a7",
        "1d18ed4992a64a665d634cc06474ffadb900ae64dda62e8c8bb14bb176133195",
        "a60967c1334400255dd61e6790da5e3674ea800d11f6b4cb7d509e0c524c023d",
        {"fuzz_task": ["skeleton", 1, 2, ""]},
    ),
    "gen190": (
        "4ad590ca9886d21f5845e7aced281a2b35b70334abe94a05cea07ad7252f3cbb",
        "308751df6cc17da3b20ccc24f127c3b4e4aebd5082ae0d6746fc82d5ad81f8da",
        "5e5d772b9f51af4d560aa201693e24649ab076de6b56a71c801cb0547494fa31",
        {"fuzz_task": ["skeleton", 0, 3, ""]},
    ),
    "gen191": (
        "87cbe9ff6ac7cbb9b6fb291fdd83a11ef8c7a4fb0363d9af334e1ce6f700c315",
        "357e917e21e45f03a6e2ec02e8536e3e2d1b71e3415d5f511d1c937d586f9c5b",
        "0a480c05b1ae6cd28f4381f199336779b438603c6fa009b69688e83a6ce665ec",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen192": (
        "03bbc5d2b1a47f2c6cca0ba6015a51ac8cdfa3031d0519fc85e9b00710f372a3",
        "859f772c3826e61d1cebba40db88f2e32b5b6a149a9e1bb4a6bca67b68a0a438",
        "5a1d29a5d20718ef9c56b966e588da6df72f71c8ba95258812a3476d48ebe490",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
    "gen193": (
        "e040125bc54ec65a2c91dbd52879fbfda958a30cca381d496d770cd5568114bb",
        "a17658e10b92c18e0927a1e491c566329013a05c38eb8e9e922e5eeaf2970a94",
        "78ea35b43c5ff37a47e337259cbbf782bb5327cd99650456a6ecba8094c847b3",
        {"fuzz_task": ["skeleton", 0, 1, ""]},
    ),
    "gen194": (
        "4fc68dfe657f64e47ba910863a28ca88c7338a7466869f37c5fdb5b5a72ef382",
        "011f7a77d574a8b5a1f0e3af8a02fd7625583bd61448ed8f4599a742a7250f97",
        "b80973b8faddc346a6861170c29e6d36bb685d63221b5645a958c8dc10001a61",
        {"fuzz_task": ["affine", 2, 2, ""]},
    ),
    "gen195": (
        "05ee7481b15e1f1c00e55040fd222d4b701e9b1a7aba9891da5636427f938a73",
        "d9f15d9759e1bbdefae5b10053a4a91dca74300f9dacb37e038dfd74cdb301a3",
        "a790ec5c25324147741c16df38cf14f124ad81ab03a05d8e7eb75a55f3c8dbd2",
        {"fuzz_task": ["skeleton", 0, 3, ""]},
    ),
    "gen196": (
        "0994cbb161e41acabba1bce44012cfe8bb70781541804d830919bb38b727ef5a",
        "1e87c352eca80eea3f519cc1d42ba673b102f6825aff75613aebeeaf7a37fe3b",
        "d166bb7c3655199c5f969718fa77878f8252617a90aca3331b4ef1f60acdf586",
        {"fuzz_task": ["skeleton", 1, 3, ""]},
    ),
    "gen197": (
        "94026d739677bda7b68e80feb944e7ab79c120cbec77a04d7a2cbb49dc36cb98",
        "5b1e42d63498d857fcbc7625a157389e3aae5ca2f85a43cb306b8d4f3b249cc2",
        "2c1993877cea263ccca46db37b7546104be757606051e7a395ed1d6f93c45d6e",
        {"fuzz_task": ["skeleton", 0, 3, ""]},
    ),
    "gen198": (
        "8da59e1874b1314cb625f35b13ad607a3ac77df9c727ea5219a8b94e271e7ac3",
        "071cbd0ee68f009fa1574a6465465bb1258aa1ae60dcf0ea2bd1464187f4a5b0",
        "d01391132d666a6127e42d68a519295adb50700579d77f692f161e9ae5ab7330",
        {"fuzz_task": ["skeleton", 1, 2, ""]},
    ),
    "gen199": (
        "324492cf9d54db1d808c9f1b3fdbc75233f7ddb0555167132aecf3e753d8a95c",
        "026073da6a0da475079e60a16bf653ee0cee43983049d0104e2027ae3a5069af",
        "732bcded7230e46a14fd2822c3e40af373b3d6964ad68c00537ba926266c039c",
        {"fuzz_task": ["skeleton", 0, 2, ""]},
    ),
}


if __name__ == "__main__":
    print(render(record()))

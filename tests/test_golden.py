"""Golden outputs: SHA-256 of the document `cli.dispatch` returns for a
fixed corpus of invocations, one per subcommand form and output format.

Any change to the exact rationals, digits, counts or float renderings a
command prints changes its hash.  The hashes were recorded before the
hull arithmetic was unified onto one integer kernel (the format corners
before the subcommands became one command table); a refactor must keep
every one of them.
"""

import hashlib

import pytest

from sadicsets.cli import build_parser, config_from_args, dispatch

BASE40_U0 = ",".join(str(1 + (7 * i) % 6) for i in range(40))
BASE40_U4 = ",".join(str(c) for c in ([1, 2, 3, 5, 6, 7, 8] * 6)[:40])

GOLDEN = [
    (("dim", "--s", "3", "--u", "0"), "764dfd148ee2d0a449133a5cbee4c2fb34142de960fc2c8c863f7cf82037887a"),
    (("dim", "--s", "7", "--u", "3", "--tol", "1e-9"), "55fd0122eb60f7b58a67faabde60a0f949a06d5b97d457f2038e392bbb56b1a1"),
    (("dim", "--s", "5", "--u", "4"), "b2c1686883a3ce570b526923c6d95323c8e4eb852b61ff516cf1fe17f5d3b840"),
    (("dim", "--alphabet", "sprime3"), "be18d86bca4e626ab044e0b5268f31b16ef35cbc773f77dc3cf4f85c27b1e5e4"),
    (("dim", "--alphabet", "tilde:5"), "9e682f8988bcaec576fdffe78aa16985d098873ced425459a4af01471aea7d7e"),
    (("cylinder", "--s", "3", "--u", "0", "--base", "1,2,1"), "a1fea47ea5c7e5071d25d3869f0facf930a20dde5075d6ff393e79dbf35d4fb9"),
    (("cylinder", "--s", "5", "--u", "0"), "50067d7f64d9dbcf7def5be70580cb5e72245238784819af87d4ead7e564133f"),
    (("cylinder", "--s", "7", "--u", "0", "--base", BASE40_U0), "4e6136fccb3b27b606afb53c17a923695fe00238f8d1118ce44e01b07d507611"),
    (("cylinder", "--s", "4", "--u", "1", "--base", "2,3,3,2"), "bd3a5aec2bcdc1d12598e6cb1830dc4ede782e2cb3b9dc42ec8c0a62cbb27455"),
    (("cylinder", "--s", "9", "--u", "4", "--base", BASE40_U4), "92897c188f006390de51ab7cd990e0aef462bdae49d4562ba8a8abd902a49f7b"),
    (("cylinder", "--s", "6", "--u", "5", "--base", "4,1,3,2"), "486d0971b453de7d95f1c4501f64f70f526fd9e16281f7faf300f14ce0bf29ea"),
    (("gaps", "--s", "3", "--base", "1,2", "--p", "1"), "c04252ecee2e180153ad00f88662750e2fe8b52bb87c4d6493ee1ee7e327c11a"),
    (("gaps", "--s", "6", "--base", "5,1,4", "--p", "3"), "a2ef4930b4640d5f081f271e6230dadb2d6c2b6b87b425bddc94c092d9cf7bee"),
    (("generate", "--s", "5", "--u", "2", "--blocks", "1,3,4", "--tail", "4,1", "--n", "30"), "939ce39650c8f1f8155d3a70f31ae88fa45bf49f6e74c360c7d30a8292e1faaa"),
    (("generate", "--s", "4", "--u", "0", "--blocks", "3,1,2"), "785a9f4497d25f143ec978fbb8cc10d237c42c3effb314a469dca6116408187b"),
    (("boxcount", "--s", "3", "--u", "0"), "d12a860bd905615174419d3707d20918f9e4167c362b4cd139b50f0b254804eb"),
    (("boxcount", "--s", "3", "--u", "0", "--format", "csv"), "5a7b408c87c50e7e90bb484f492f0a4b827be86257d56dcb8c59ecebea2c6f2c"),
    (("boxcount", "--alphabet", "tilde:3", "--depth", "10", "--scales", "3..7", "--format", "csv"), "be80283bb4d3a788bd8f21fd93766e499b23547b6dfe4f3d846f781178332fb0"),
    (("measure", "--s", "3", "--u", "0", "--k", "6"), "abb1559e3a2f681e40f927c481d8693ea0c48bfc2522715708474314fb795544"),
    (("measure", "--s", "4", "--u", "2", "--k", "6", "--format", "json"), "c1dec19b5ce8b3288607f6e9982af248d3759458a70dffe2baeab7e580b433b5"),
    (("measure", "--s", "5", "--u", "0", "--k", "4", "--format", "json"), "b06069491559b23e1c28f49101ff66cd2e4ba4d786c3f95ac8875603a1b53ae2"),
    (("freq", "--s", "3", "--preperiod", "02", "--period", "021", "--k", "1000", "--u", "0"), "4bfa7f8f6b62b599cbd745083db2fcfcec37e9a8613f354bc0b86cf7f977c8ce"),
    (("freq", "--s", "5", "--period", "1,2,2,3,2,2,2,4", "--k", "77", "--u", "2"), "1e401559c30d94f7336fd0914e10ba96ff0ca3e32226dac1e0622b89a223dcd6"),
    (("normal", "--s", "3"), "b414e026d0a4bb9470e7cb389756016958db65a1a0338b04664db5ed83eceb98"),
    (("normal", "--s", "7"), "0bd8d5e8913be18a58abe4d5021a797f1182700ffe207a6fc0a6762664c3f8b1"),
    # Format corners: measure and boxcount print CSV only for --format csv,
    # dim prints JSON whatever --format says, and reproduce prints JSON for
    # --format json (its table carries runtimes, so it is not hashed).
    (("measure", "--s", "3", "--u", "0", "--k", "2", "--format", "table"), "adb70d65ea83a009ec62db056fb63cf3dc68f366f94527b9ff90e44850b9dabc"),
    (("boxcount", "--s", "3", "--u", "0", "--format", "table"), "d12a860bd905615174419d3707d20918f9e4167c362b4cd139b50f0b254804eb"),
    (("dim", "--s", "3", "--u", "0", "--format", "csv"), "764dfd148ee2d0a449133a5cbee4c2fb34142de960fc2c8c863f7cf82037887a"),
    (("reproduce", "--only", "closed-form", "--format", "json"), "df202046f631e70f6230b273878434c9ce5a8cc2aaf37a95dba4af23e356ad92"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a)[:60] for a, _ in GOLDEN])
def test_output_digest(argv, digest):
    code, text = dispatch(config_from_args(build_parser().parse_args(list(argv))))
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == digest

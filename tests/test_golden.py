"""Byte-for-byte CLI output, pinned by SHA-256 digests.

The digests were recorded before the field arithmetic was reduced to a
single O(q) representation; the q = 3^e ``epsilons`` and the q = 243
``spectrum`` digests before GR(9,e) was reduced to a Teichmueller trace
vector; the q = 61, 127, 169 ``spectrum`` and q = 61 ``epsilons`` digests
before the closed form took one exponential sum per scaling orbit; the csv
and table formats, ``ramanujan``, ``build`` and the two files of ``build
--out`` before the CLI dropped its copied run configuration; the q = 125
and 169 ``epsilons`` csv and the q = 9, 25, 61 ``epsilons`` table digests
before ``epsilons`` formatted its cells once per scaling orbit; the q = 61,
343 and 991 ``spectrum --graph d4`` digests before the closed form took one
sum and one square per Galois orbit; the q = 61 ``spectrum --graph d4``
csv (its +-|eps| serials) and the q = 257 ``spectrum`` table (its
eps^2 - q serials) before each eps was kept as an integer row and its
coefficient text formatted once; the ``verify`` digest before Gamma(4,q) was
built in the slab form of Cay(G,S).  They must not be regenerated to make a
changed program pass: a new digest means the output changed.
"""

import contextlib
import hashlib
import io
import re

import pytest

from luspec import cli

GOLDEN = {
    "spectrum --q 2 --no-timestamp":
        "7e54033712a499362d55d96f90792d77be19bfe5185b8ddb6be2630b6e69bb32",
    "spectrum --q 3 --no-timestamp":
        "8de3506d0385403c2921491acfa7b21e986026931bc3158f837fc1eb8a47506f",
    "spectrum --q 4 --no-timestamp":
        "6519ffe94ae5fa731a51fa933708ae854ecb2fc421b204540f1c1bc160ef6153",
    "spectrum --q 5 --no-timestamp":
        "0a3042e35e09540815dd3e2cc362540818a18c5bb373bd759978ce1554769858",
    "spectrum --q 7 --no-timestamp":
        "e66cdcc32b70d74ed77c7601a4dddd0cb077e725316549cb31b60169b34875df",
    "spectrum --q 8 --no-timestamp":
        "f5c153cb2244f3838fb9e0d4fe4828446b92a3a18ee5e2cce8b5bb648e9fb800",
    "spectrum --q 9 --no-timestamp":
        "efa1a40740e580a6efaa4b8cc7dd24582341b9272ae9f5b5e431d074d5d6f866",
    "spectrum --q 11 --no-timestamp":
        "1da13dfc8a2cae9baff225d0805b7e238471bc22374dd871ae4ec1e5d7168f62",
    "spectrum --q 13 --no-timestamp":
        "0adf712ebc14a5936866b0b3550c9aa0d7509dedbb681c11acb6193965a4d757",
    "spectrum --q 27 --no-timestamp":
        "63698c6e7cb68768acbe284f7f2cd2710fb5ecd15a324d42021c3a2f50004ad5",
    "spectrum --q 81 --no-timestamp":
        "5fb2faa35956e99d0696c1ccc25469914675ec3ce6986768f194e3c9f5cad8c2",
    "spectrum --q 125 --no-timestamp":
        "f6872666eb17e013d12c392369b3245a27ec134417b78e0a4fc93c384c1c5fb4",
    "spectrum --q 257 --no-timestamp":
        "2120bf5f3de8251d0c14eef2e3ffadfcdd892e0a1bb2d679df04fd56bcea77eb",
    "spectrum --graph d4 --q 257 --no-timestamp":
        "7975b172fe1a90fbf998fbf247077a7ea45d8c5a6c26ab5de49225a6f584ecda",
    "epsilons --q 257 --no-timestamp":
        "d6d2fea0a8ee735255ddea93f315ba77f775ae7430e3790da0aba75cc53d3701",
    "epsilons --q 3 --no-timestamp":
        "a64dfb38b5cef8458be15db9ed487f8703844219abe463bcbfc006c0700dcf52",
    "epsilons --q 9 --no-timestamp":
        "519b8c9e6d3bd21517b434ee7e435ea9a45a3c696df3a65b39a107c463013005",
    "epsilons --q 27 --no-timestamp":
        "fc2d12c0808c631321eaa91b8db3feeeed016723a358bb6d995acac719b7dd18",
    "epsilons --q 81 --no-timestamp":
        "c3927767d3c2bcb6b3dd8fe3c8aa19c90b8bbe32715981e3f4bd1df2ed6ce7f4",
    "epsilons --q 243 --no-timestamp":
        "6de63c7f08f06c841a07a3d1876801e8adc84b815f4bdc7782163a2c8e4b3807",
    "spectrum --q 243 --no-timestamp":
        "86bf35e8c2f841ea9bd510bc5a123852699071389d87c5abb464ce49cd0bd88b",
    "spectrum --q 61 --no-timestamp":
        "9c63bf0f01eaa706ad1b27ebffc99b475b6643fefc7b15ee0715335b0c26ef57",
    "spectrum --q 127 --no-timestamp":
        "3395cec14631813bcd38ebb2f4d687f7e0a5d0dd1e54078da453c4f38ea21d89",
    "spectrum --q 169 --no-timestamp":
        "b86c1a66741c57b9202dc5771de215c3ff6d4d3fe8fd17a73610255ed7279100",
    "epsilons --q 61 --no-timestamp":
        "1b69c370226e9da9a61ce2ed2a1ad2c121566e3fca9124f9efaaba7fd286ac52",
    "spectrum --q 13 --format csv --no-timestamp":
        "430036020f0f479ae0e9d83924e47d90436f5c702a69b7bc8bf797b22d09df6a",
    "spectrum --graph d4 --q 7 --format table --no-timestamp":
        "5b21cf5273f6a132f24d0c305de36268a617233717bd903e980ab98a29df3a18",
    "epsilons --q 13 --format table --no-timestamp":
        "ca6efbe035e6bba379edd42904ec2abd4f3572196fc902b4b02e31eec698270f",
    "ramanujan --q 5,7,13 --no-timestamp":
        "70f0927a04721dc4c0bf31005ef68c648eb9989b0c405f9424d9e59bc7da2eb1",
    "ramanujan --q 5,7,13 --format json --no-timestamp":
        "1ff14300e6981a93003a0105df74f3d293d05badcb45aedc570d3211a4b4ac60",
    "build --q 3 --no-timestamp":
        "fbf19e0c706625c71ae5a960776bbf647be315453dd70ad2a964423a1efbc477",
    "epsilons --q 125 --no-timestamp":
        "add7ea63a770188f2f20dac0465b183e8f6b440ded0ba259ea9f0125230e240c",
    "epsilons --q 169 --no-timestamp":
        "95d487bdc32985a603593b0b0d765ac8ec9da5dbb99e0a363dad2eea67c9efd4",
    "epsilons --q 9 --format table --no-timestamp":
        "2bce8d75d249a74044d5daa8b9fe13dbde1b5ace1518f8dbb9f938e6bd6ca92d",
    "epsilons --q 25 --format table --no-timestamp":
        "d61870be6ea35fda401244fa645158d0e817c9e2fa206ed3334a5d97dbdb9aaf",
    "epsilons --q 61 --format table --no-timestamp":
        "c54e361cf8228255f0b7745a3129008027d5dd319a7d7d283a3bf0fa5e226035",
    "spectrum --graph d4 --q 61 --no-timestamp":
        "1d8be225ded77d0a2493c11d18d578bc8d9bf243f740d8fd18fd97efc06f2cda",
    "spectrum --graph d4 --q 343 --no-timestamp":
        "a7687b50f55e98e5b78aa9daf41b5853d4ef7840886cbdeed72a3bf804175c7a",
    "spectrum --graph d4 --q 991 --no-timestamp":
        "f1b42bea9124f7a33f2ae106d908b069fa1681e85f611f0426a89c9475169f5a",
    "spectrum --graph d4 --q 61 --format csv --no-timestamp":
        "5741715d9705a440c1c900ecdf4b38fd6a405f5394f1c238e6d7bdfd8a9686c5",
    "spectrum --q 257 --format table --no-timestamp":
        "d55c6eb3ab2434870016a571adae54a03a2fb62949c121a2f73de343d7b90da0",
}

# build --q 2 --graph d4 --out F writes the edge list to F and the vertex
# coordinates to F.coords.json
GOLDEN_BUILD_FILES = {
    "": "8035d1e94fe46fcaf53d813fab5e5205f49e0aa4cfa142ec254865914e624423",
    ".coords.json":
        "3633f654d16e0296ed77027c3a4cbaafe930b970a5c20a27edf65d047dba7500",
}


# verify's report with every "worst dev" figure masked: the eigensolver's last
# bits may differ between BLAS builds, the verdicts and check lines may not
VERIFY_ARGV = "verify --q 2,3,4,5,7,8,9,11,13 --max-dense-n 2401 --tol 1e-6 --no-timestamp"
VERIFY_GOLDEN = "345a4a445706e8adc37a8d32f88ce80ab679401ba710b182494d9c6b7ef47bcb"


@pytest.mark.parametrize("argv", list(GOLDEN))
def test_cli_output_digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv.split()) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == GOLDEN[argv]


def test_build_out_file_digests(tmp_path, capsys):
    edges = tmp_path / "d4.edges"
    assert cli.main(["build", "--q", "2", "--graph", "d4", "--out", str(edges),
                     "--no-timestamp"]) == 0
    assert capsys.readouterr().out == \
        f"wrote 32 edges to {edges} (+ coordinate dictionary)\n"
    for suffix, digest in GOLDEN_BUILD_FILES.items():
        data = (tmp_path / f"d4.edges{suffix}").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


def test_verify_output_digest_with_worst_dev_masked():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(VERIFY_ARGV.split()) == 0
    text = re.sub(r"worst dev [^)]*", "worst dev *", out.getvalue())
    assert text.count("worst dev *") == 9  # q = 2..5 twice, q = 7 once
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_GOLDEN

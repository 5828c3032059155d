"""plab's stdout, stderr and exit code, pinned byte for byte.

Each case is an argument list, a PLAB_BUDGET value (None: unset) and the
expected exit code with the first 16 hex digits of the sha256 of stdout and
of stderr. The cases cover every subcommand and every --format in the
argument shapes of perfbench's cli workload, both spellings of each
positional-or-flag argument, path listings that end at an auxiliary sink
("j": null), the usage errors plab checks itself, exit-3 failures (among them
a small PLAB_BUDGET cutting a rewrite chain, a DAG's vertices and its path
enumeration, and plain DAG output, which enumerates no paths, under that
budget) and the help of plab and of every subcommand. bench's seconds are
masked before hashing, and help is formatted for an 80-column terminal.
"""

import hashlib
import re

import pytest

from partlab.cli import main

CASES = [
    ("count 30", None, 0, "29745952cc29bd63", "e3b0c44298fc1c14"),
    ("count 30 --method euler", None, 0, "29745952cc29bd63", "e3b0c44298fc1c14"),
    ("count 30 --method integral", None, 0, "29745952cc29bd63", "e3b0c44298fc1c14"),
    ("count 30 --method sigma", None, 0, "29745952cc29bd63", "e3b0c44298fc1c14"),
    ("count 30 --method minpart", None, 0, "29745952cc29bd63", "e3b0c44298fc1c14"),
    ("count 30 --method bounded", None, 0, "29745952cc29bd63", "e3b0c44298fc1c14"),
    ("count 30 --engine maxpart", None, 0, "29745952cc29bd63", "e3b0c44298fc1c14"),
    ("count 20 --method oracle", None, 0, "5eac2d898682427b", "e3b0c44298fc1c14"),
    ("count 30 --method rewrite:minpart", None, 0, "29745952cc29bd63", "e3b0c44298fc1c14"),
    ("count 30 --method rewrite:bounded", None, 0, "29745952cc29bd63", "e3b0c44298fc1c14"),
    ("count 30 --method rewrite:maxpart", None, 0, "29745952cc29bd63", "e3b0c44298fc1c14"),
    ("count 30 --method all", None, 0, "d228b9128560d5df", "e3b0c44298fc1c14"),
    ("count 30 --method maxpart --format json", None, 0, "6078ceff1d7ec449", "e3b0c44298fc1c14"),
    ("count 20 --method oracle --format json", None, 0, "7b54e4d7bd6f952d", "e3b0c44298fc1c14"),
    ("count 30 --method rewrite:maxpart --format json", None, 0, "d91c842e0f23791f", "e3b0c44298fc1c14"),
    ("count 20 --engine all --format json", None, 0, "dcf5ed158e6840a8", "e3b0c44298fc1c14"),
    ("count 90 --method oracle", None, 3, "e3b0c44298fc1c14", "3026fe54ccb30fc0"),
    ("count 30 --method rewrite:minpart", "1", 3, "e3b0c44298fc1c14", "12ec0b061272eb5c"),
    ("count 12 --method rewrite:maxpart", "2", 3, "e3b0c44298fc1c14", "58624a61e5ec0b50"),
    ("count 4", "abc", 2, "e3b0c44298fc1c14", "2458c93c9e0c0319"),
    ("count 4", "0", 2, "e3b0c44298fc1c14", "42084e9d1151b25e"),
    ("count 4", "", 2, "e3b0c44298fc1c14", "3b7a982925b4e92a"),
    ("coeffs e 12", None, 0, "4906163ea3ed4b39", "e3b0c44298fc1c14"),
    ("coeffs e 12 --format json", None, 0, "4906163ea3ed4b39", "e3b0c44298fc1c14"),
    ("coeffs e 12 --format csv", None, 0, "f0957ec11973afa8", "e3b0c44298fc1c14"),
    ("coeffs e 12 --format plain", None, 0, "b73cccddd9eb22d0", "e3b0c44298fc1c14"),
    ("coeffs f 12 --format json", None, 0, "8dadc548d2465070", "e3b0c44298fc1c14"),
    ("coeffs f 12 --format csv", None, 0, "2ed4c5b0664ada61", "e3b0c44298fc1c14"),
    ("coeffs f 12 --format plain", None, 0, "96f7b887811b6867", "e3b0c44298fc1c14"),
    ("coeffs c-product 12 --format json", None, 0, "67eca82480a3bb9d", "e3b0c44298fc1c14"),
    ("coeffs c-product 12 --format csv", None, 0, "2ed4c5b0664ada61", "e3b0c44298fc1c14"),
    ("coeffs c-product 12 --format plain", None, 0, "96f7b887811b6867", "e3b0c44298fc1c14"),
    ("coeffs c-recurrence 12 --format json", None, 0, "7da351c736b533a9", "e3b0c44298fc1c14"),
    ("coeffs c-recurrence 12 --format csv", None, 0, "2ed4c5b0664ada61", "e3b0c44298fc1c14"),
    ("coeffs c-recurrence 12 --format plain", None, 0, "96f7b887811b6867", "e3b0c44298fc1c14"),
    ("coeffs e-recurrence 12 --format json", None, 0, "a8c2ad0ad545784c", "e3b0c44298fc1c14"),
    ("coeffs e-recurrence 12 --format csv", None, 0, "f0957ec11973afa8", "e3b0c44298fc1c14"),
    ("coeffs e-recurrence 12 --format plain", None, 0, "b73cccddd9eb22d0", "e3b0c44298fc1c14"),
    ("coeffs dag-maxpart 12", None, 0, "f562ae386a168ecd", "e3b0c44298fc1c14"),
    ("coeffs dag-maxpart 12 --format csv", None, 0, "bca8a86dc3573bd9", "e3b0c44298fc1c14"),
    ("coeffs dag-maxpart 12 --format plain", None, 0, "e7e7c102d921b9b4", "e3b0c44298fc1c14"),
    ("coeffs dag-minpart 12", None, 0, "e4c455b448ed29f1", "e3b0c44298fc1c14"),
    ("coeffs dag-minpart 12 --format csv", None, 0, "161f7e37a84779ed", "e3b0c44298fc1c14"),
    ("coeffs dag-minpart 12 --format plain", None, 0, "08ef05fcd6398756", "e3b0c44298fc1c14"),
    ("coeffs f --upto 12 --format csv", None, 0, "2ed4c5b0664ada61", "e3b0c44298fc1c14"),
    ("coeffs dag-minpart --upto 12", None, 0, "e4c455b448ed29f1", "e3b0c44298fc1c14"),
    ("coeffs e 5 --upto 5", None, 2, "e3b0c44298fc1c14", "db80d06275c4ac69"),
    ("coeffs e", None, 2, "e3b0c44298fc1c14", "db80d06275c4ac69"),
    ("coeffs e 0", None, 2, "e3b0c44298fc1c14", "87815ec8e3cb218d"),
    ("verify claim", None, 0, "1c3b4039f02db427", "e3b0c44298fc1c14"),
    ("verify claim --format json", None, 0, "e3c148f1800daf74", "e3b0c44298fc1c14"),
    ("verify rewrite", None, 0, "24f9fcbfe334d900", "e3b0c44298fc1c14"),
    ("verify rewrite --format json", None, 0, "f02899a61b9749a8", "e3b0c44298fc1c14"),
    ("verify engines --upto 12", None, 0, "9ea0dc80ec081b11", "e3b0c44298fc1c14"),
    ("verify lemmas --upto 8 --format json", None, 0, "b7e9182b2a566222", "e3b0c44298fc1c14"),
    ("verify involution --upto 10", None, 0, "78b06a8ddc30cb09", "e3b0c44298fc1c14"),
    ("verify involution --upto 1", None, 0, "a60d5ffe8b73a9db", "e3b0c44298fc1c14"),
    ("verify engines", None, 0, "5124de71d77098f0", "e3b0c44298fc1c14"),
    ("verify involution", None, 0, "7b3f83b914c6c163", "e3b0c44298fc1c14"),
    ("verify claim --upto 60", None, 0, "5b0de0e187ddf1b8", "83ffd3789d183f46"),
    ("dag minpart 6", None, 0, "64fe4e6713eb3ef5", "e3b0c44298fc1c14"),
    ("dag maxpart 6 --format dot", None, 0, "e2cc0f830ffa1d46", "e3b0c44298fc1c14"),
    ("dag maxpart 6 --format plain", None, 0, "666dbb97327cf6a0", "e3b0c44298fc1c14"),
    ("dag minpart 6 --format json", None, 0, "64027b386a6a65cf", "e3b0c44298fc1c14"),
    ("dag maxpart 6 --format json --paths", None, 0, "e18dd392825af14c", "e3b0c44298fc1c14"),
    ("dag bounded 5 --format plain", None, 0, "1379671fa04e9453", "e3b0c44298fc1c14"),
    ("dag --system maxpart --n 6", None, 0, "e2cc0f830ffa1d46", "e3b0c44298fc1c14"),
    ("dag --system bounded --n-tilde 5 --format plain", None, 0, "1379671fa04e9453", "e3b0c44298fc1c14"),
    ("dag minpart --n 6 --format json", None, 0, "64027b386a6a65cf", "e3b0c44298fc1c14"),
    ("dag --system minpart 6 --format plain", None, 0, "333883465b92a782", "e3b0c44298fc1c14"),
    ("dag maxpart 8 --completion", None, 0, "c59fb4da7aff88fb", "e3b0c44298fc1c14"),
    ("dag maxpart 8 --completion --format json", None, 0, "e5c294bbadaf22fa", "e3b0c44298fc1c14"),
    ("dag minpart 6 --format json --paths", None, 0, "4ac740aa30c1f525", "e3b0c44298fc1c14"),
    ("dag maxpart 8 --completion --format json --paths", None, 0, "51eb9bcb133700ff", "e3b0c44298fc1c14"),
    ("dag minpart 8 --format json --paths", "5", 3, "e3b0c44298fc1c14", "44bf996c68e46044"),
    ("dag maxpart 24 --format json --paths", "350", 3, "e3b0c44298fc1c14", "ac145c99cd591051"),
    ("dag maxpart 24 --format plain", "350", 0, "77cc88ad9c60dcda", "e3b0c44298fc1c14"),
    ("dag minpart 4 --completion", None, 2, "e3b0c44298fc1c14", "5992ae126ec421f1"),
    ("dag minpart", None, 2, "e3b0c44298fc1c14", "d0e62d08fad8be3c"),
    ("dag minpart 4 --n 4", None, 2, "e3b0c44298fc1c14", "d0e62d08fad8be3c"),
    ("dag 6 7 --system maxpart", None, 2, "e3b0c44298fc1c14", "d0e62d08fad8be3c"),
    ("dag --n 4", None, 2, "e3b0c44298fc1c14", "fd339b72eb861fef"),
    ("dag minpart 4 --system minpart", None, 2, "e3b0c44298fc1c14", "fd339b72eb861fef"),
    ("involution 7", None, 0, "e7ebe39d2ce5c402", "e3b0c44298fc1c14"),
    ("involution 7 --format json", None, 0, "b55f253eecbc5c40", "e3b0c44298fc1c14"),
    ("involution 7 --format csv", None, 0, "7ab2f9f0582ad5a6", "e3b0c44298fc1c14"),
    # B_7's signed sum is -1, where B_6's is 0: j = 8 pins the previous sum
    ("involution 8", None, 0, "6b0b492e9a2461d9", "e3b0c44298fc1c14"),
    ("involution 8 --format json", None, 0, "339b687335aa6bde", "e3b0c44298fc1c14"),
    ("involution 0", None, 2, "e3b0c44298fc1c14", "c199d02e275b9563"),
    ("codes pentagonal 6", None, 0, "42dc2b59c6231fa1", "e3b0c44298fc1c14"),
    ("codes pentagonal 6 --format json", None, 0, "0cf3ed2a54563deb", "e3b0c44298fc1c14"),
    ("codes decode 10 1011", None, 0, "277c31d580e77563", "e3b0c44298fc1c14"),
    ("codes decode 10 1011 --format json", None, 0, "a11fefe7f4a9d005", "e3b0c44298fc1c14"),
    ("codes decode 10 000", None, 3, "e3b0c44298fc1c14", "1ea04db112d28d99"),
    ("codes decode 10 102", None, 3, "e3b0c44298fc1c14", "a3073a08c15d1de2"),
    ("codes encode 5 3 2", None, 0, "83017ffd1aa95077", "e3b0c44298fc1c14"),
    ("codes encode 5 3 2 --format json", None, 0, "c22cd5373e15417f", "e3b0c44298fc1c14"),
    ("codes encode 5 5", None, 3, "e3b0c44298fc1c14", "a8325166fe57cf3e"),
    ("codes encode 5 1", None, 3, "e3b0c44298fc1c14", "f684e4bef64e1f86"),
    ("codes bj 7", None, 0, "01e95c6dd97b0ae9", "e3b0c44298fc1c14"),
    ("codes bj 7 --format json", None, 0, "146d814cc5abe53b", "e3b0c44298fc1c14"),
    ("bench 30", None, 0, "9aacd127f9e93f09", "e3b0c44298fc1c14"),
    ("bench 30 --format json", None, 0, "947f30ce3c231a43", "e3b0c44298fc1c14"),
    ("bench --upto 30 --format csv", None, 0, "13842ee929c4cda0", "e3b0c44298fc1c14"),
    ("bench 20 --engine euler --engine maxpart --format csv", None, 0, "20de0c75a4a49cce", "e3b0c44298fc1c14"),
    ("bench 20 --engine all --format plain", None, 0, "1c04aea9818588cf", "e3b0c44298fc1c14"),
    ("bench --upto 20 --methods euler,integral --format json", None, 0, "735a4093eea3df9d", "e3b0c44298fc1c14"),
    ("bench 10 --methods quantum", None, 2, "e3b0c44298fc1c14", "3245e41b2f6f9d68"),
    ("bench 5 --methods ,", None, 2, "e3b0c44298fc1c14", "3fa2c0da5daac09b"),
    ("bench 10 --upto 10", None, 2, "e3b0c44298fc1c14", "7ae20894803aa618"),
    ("bench", None, 2, "e3b0c44298fc1c14", "7ae20894803aa618"),
    ("--help", None, 0, "9c9bcd2c4329f6b7", "e3b0c44298fc1c14"),
    ("count --help", None, 0, "164a765c0e3d8497", "e3b0c44298fc1c14"),
    ("coeffs --help", None, 0, "ab45c9f06ee326cc", "e3b0c44298fc1c14"),
    ("verify --help", None, 0, "6ed2c1faf128d681", "e3b0c44298fc1c14"),
    ("dag --help", None, 0, "a28c4584e78fb1b2", "e3b0c44298fc1c14"),
    ("involution --help", None, 0, "1ef51beff2e80cf8", "e3b0c44298fc1c14"),
    ("codes --help", None, 0, "08a80f5ea51a7832", "e3b0c44298fc1c14"),
    ("codes pentagonal --help", None, 0, "72434fdab707d7fd", "e3b0c44298fc1c14"),
    ("codes decode --help", None, 0, "f7879bc7756f6fa7", "e3b0c44298fc1c14"),
    ("codes encode --help", None, 0, "8fdf1e6135cce586", "e3b0c44298fc1c14"),
    ("codes bj --help", None, 0, "7f17a2ac384e338b", "e3b0c44298fc1c14"),
    ("bench --help", None, 0, "86d8b572bffe4435", "e3b0c44298fc1c14"),
]


def _mask_seconds(text: str) -> str:
    text = re.sub(r'("seconds": )[^,\n]+', r"\1#", text)  # json
    text = re.sub(r"(seconds=)\S+", r"\1#", text)  # plain
    return re.sub(r"^(\w+,\d+,\d+,)\S+$", r"\1#", text, flags=re.M)  # csv


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def outcome(argv: str, budget, capsys, monkeypatch) -> tuple[int, str, str]:
    """(exit code, stdout digest, stderr digest) of one in-process run."""
    monkeypatch.setenv("COLUMNS", "80")
    if budget is not None:
        monkeypatch.setenv("PLAB_BUDGET", budget)
    code = main(argv.split())
    out, err = capsys.readouterr()
    if argv.startswith("bench"):
        out = _mask_seconds(out)
    return code, _digest(out), _digest(err)


@pytest.mark.parametrize(
    "argv, budget, code, out, err",
    CASES,
    ids=[
        ("" if budget is None else f"PLAB_BUDGET={budget}_") + argv.replace(" ", "_")
        for argv, budget, *_ in CASES
    ],
)
def test_golden(capsys, monkeypatch, argv, budget, code, out, err):
    assert outcome(argv, budget, capsys, monkeypatch) == (code, out, err)

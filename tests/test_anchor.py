"""Regression anchors for the verification harness, on reduced grids, and
for analyze on the two corpus files.

Each rule runs through the CLI on a grid small enough for the whole set to
take seconds, and its report digest and verdict count must equal the values
frozen when the anchor was set.  The digest covers the command line and
every verdict field, notes included, so any moved verdict, predicted value,
brute-force value or budget note fails here.  The grids are the ones the
benchmark's verify workload runs.  The analyze anchors cover every field
of every graph's record: |Aut|, D, theta, the Phi rows up to 4 and the
steady vertices.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from symbreak import verify

# rule -> (--grid override or None, digest, verdict count)
ANCHOR = {
    "eq1": (None, "sha256:803b3b855de8a586646d294f0f028b9ed846092c731845c71c4ef050729b4921", 28),
    "eq2": (None, "sha256:69a8e102447d514622e387a92781b85108dfe8c9afc48b82b7006be6b0ffe738", 858),
    "eq3": (None, "sha256:4af8c6ac83333718c5277476b7d733bed5e494f6ffde0c45fa2e5227be27981e", 184),
    "thm2.1": (None, "sha256:1b388e07dea45a5997898a17a9185f84bce779b4fe1ac184353a84ac4d549c56", 13),
    "thm3.5": (None, "sha256:d5f4c1bec3d18b1184d5bfd7f7cf2c93e09d8f87c070ef7fe481a104618a5a47", 481),
    "thm3.7": ("t=2..3", "sha256:5ea1dad143debc4efe581dbdb8d09c7de78034ce9a2ee0e9d53de04a51e135c4", 10),
    "cor3.8": ("family=K3", "sha256:2d3fc6271504917122e1ed1aa9a2fc412f348e83e0331a417f7fff07c5282cb6", 51),
    "cor3.9": (None, "sha256:c1f1ac77708f9926cf48018256d71bf74e1dd7f23e4b52817ef58bfccbd058ef", 101),
    "thm3.10": (None, "sha256:6aa3d9e06bd3af73ccfa604303b88d3ccd1680d77971d494d7f61ccb09772438", 6),
    "thm3.12": (None, "sha256:aa311182fd84b14fbccb2564bb6966a28f60fffc0d23284e16a462ac08b5368e", 7),
    "thm3.13": (None, "sha256:a16c022285342391136cc1d400217fee56b0bee3a3e969629bfdf77be6146063", 4),
    "thm4.2": (None, "sha256:238fc60defc57b983499c947a270304e0e749247091f4685568a2025c7f07902", 809),
    "thm4.3": ("max=10", "sha256:d417db9ba0e9bda5e2c939ffbfd923abd6f36d4c5d4425ca2e303dc1e625b237", 250),
    "thm4.4": (None, "sha256:cce454c2209e068cefb9bb76cbe8fb9335e7c57497b5223a5bcbed52120de3e3", 809),
    "thm5.1": ("max=10", "sha256:ccce6be0c2576746acdd5735c98c68cd1ebfcd5a0408de1c4bac0d4e74fb3615", 41),
    "thm5.2": (None, "sha256:410020044275d3674157e47587535ebf37ef35702b677686451533c813acfe1f", 184),
    "thm6.1": ("max=8", "sha256:6cadc6c74a706165878dff61fada977c07a735a18cf14a1cd29969d08d7efa91", 302),
    "lex-d": ("max=7", "sha256:ea2930aad4accc66777b02c6bbccd1e8af5c3b7abc7b4b9f28959e905bfe0fe1", 290),
}


def test_anchor_covers_every_rule():
    assert list(ANCHOR) == verify.rule_ids()
    assert sum(count for _, _, count in ANCHOR.values()) == 4428


@pytest.mark.parametrize("rule", list(ANCHOR))
def test_rule_keeps_its_anchor(run_cli, rule):
    grid, digest, count = ANCHOR[rule]
    code, out, err = run_cli("verify", rule,
                             *(("--grid", grid) if grid else ()))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["summary"]["verdicts"] == count
    assert report["digest"] == digest


# corpus file -> (digest, graphs) of analyze --phi-max 4 --steady on it
ANALYZE_ANCHOR = {
    "connected_n_le6.g6": ("sha256:e85713272eec7c702c79943d9f30a90213120016f201afbc90b2a9f7a1bcbd00", 143),
    "connected_7.g6": ("sha256:efb9e3017ff344e211ce89514da5c6a16a27e78739f1db97111f83f04ad7791f", 853),
}


@pytest.mark.parametrize("name", list(ANALYZE_ANCHOR))
def test_analyze_keeps_its_anchor(run_cli, monkeypatch, name):
    # the digest covers the command, so the path is given from the repo root
    digest, count = ANALYZE_ANCHOR[name]
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    code, out, err = run_cli("analyze", f"src/symbreak/data/{name}",
                             "--phi-max", "4", "--steady")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["summary"]["graphs"] == count
    assert report["digest"] == digest

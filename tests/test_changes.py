"""``CHANGES.md`` keeps one short paragraph per PR; the full entry each
PR wrote is kept, word for word, in ``docs/changes/PR-NN.md`` and linked
from its paragraph."""

import hashlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: SHA-256 of each PR's full entry (its line of ``CHANGES.md``, newline
#: included) as it stood before the file was condensed, by PR number
ARCHIVED = {
    1: "0808d36432513e87a735f8888d502e6c7a66e45a6376be34fd2fe138204f5044",
    2: "7810febd86f4e930b126f86ba433b286f4a2d9cbfcb2d55cbdef4ceb54493fb8",
    3: "a0111fcf52b9dd42859779213238592e32a93dd634c3497ce766741e523b8fea",
    4: "d6561d12888d835827193bbf74dc570e61827b38b1848cff624ee4971183dab5",
    5: "9fd35c08160f1f96691019b38f5ebce569c9e52c08158f4353af501ac73e6938",
    6: "735ea91dc1f85713702c1aa84ffc29e5102122ea8cc9250df99488fbb3e14c07",
    7: "aa94ac3e79fd752a62748776fc310fba36dff5e68d95d8a6f13411080938bfab",
    8: "6a89cfa44ff3587a8a63a48233a7a62ab55c7071d45823d17f818fb4f294575e",
    9: "f082ca5f2f0cd5a9c6558892a1f4be63fd466d077218b3c1f513887a009d1620",
    10: "45e3da44addc03eb8daba8b26350327e49c67da3dbad470991f2110de61ca30a",
    12: "ec03b1e87a15cbf243cb1d0678cd09fa77e9d857ad5073f9452d3715228bb0dc",
    13: "e477324e0af6f5b75d69277a4911ffc8f938ecb180da4063dc46be6687b1b31a",
    14: "345c7a2e5df8fa4c407901f633ba2d93eb3809e3640a5a2456cd83baaaf1624f",
    15: "f40502a63aac2f87e3827a9f882ae6447c4edc0b620eba10c5727cb37f22d425",
    16: "95be67cf30d8aafb008d7e6a5de9750f6ce317b3ecaee33549887e8483286ac9",
    17: "65ea5dd17a15cf8fd53cbfd8fda9b731af91be4b8ce7a8d8abdd8d121eeeae82",
    18: "2e6a7c21ed3009513dbf540550e713cacfb772c60354aeded08da217ac59a12d",
    19: "251b9f22cddd02455a6bc88aae76aec37fb20708d8a81a35e64cfac4a93eb055",
    20: "7b35dcce3204962fc621c77c4e5c03752bd756085473faa4a6faedd772304933",
    21: "01338a53e60825a130b4a98f8e77519737b0ff4b349baddd094b83e5d331f156",
    22: "1b7538d07faf0496a81daedaecc0c734000f9b4b892012b77ce5bf1831c41219",
    23: "9e49a68c7daf63f85f12a3b438deb58d3cf78c3f5c0f5deea78d504805334be8",
    24: "b8d54b85d216bb648a924a435ed00dc7d97749c7643feac39e0e4a6f34160219",
    25: "c8aa99ae2082239a951833cd61d3893f450f15d2cb5abfabf207ed54d8131e46",
    26: "d0ced8e0c384a8e81bdba3a9095636d72807c5d8b672c90256a1c33c50320841",
    27: "e9b506e75f1b0f09f1e24fc7839c65ee7918e3f70e1f37787e1042eec0377b69",
    28: "27755a07f7d84f972883fa3bd9b5d1a51f94fe71313870230c41a777c3ef373e",
    29: "beaa3fddfb9c0ffd69e8c9194712389e6881491d136ffebd78c6e755591af780",
    30: "0476d6e7e4db647641ff4f58de3ae22b2904122a63a9dd55f986e3869c85404d",
    31: "f2f9b765bff6743da2392cd58273c5ac7f5b36d335743a44953f312b9ae4b132",
}


def test_every_full_entry_is_kept_word_for_word():
    for pr, digest in ARCHIVED.items():
        text = (ROOT / "docs" / "changes" / f"PR-{pr:02d}.md").read_bytes()
        assert hashlib.sha256(text).hexdigest() == digest, pr


def test_every_paragraph_links_a_kept_entry():
    changes = (ROOT / "CHANGES.md").read_text(encoding="utf-8")
    linked = {}
    for line in changes.splitlines():
        if not line.strip():
            continue
        assert line.startswith("- PR "), line[:40]
        for name in re.findall(r"\(docs/changes/(PR-\d+\.md)\)", line):
            assert (ROOT / "docs" / "changes" / name).is_file(), name
            linked[int(name[3:-3])] = len(line)
    assert set(ARCHIVED) <= set(linked)
    # a paragraph, not the run log
    assert max(linked[pr] for pr in ARCHIVED) <= 700

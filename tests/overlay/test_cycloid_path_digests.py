"""Cycloid routed paths, pinned hop by hop on states the golden traces miss.

``tests/obs/test_golden_traces.py`` covers stabilised full overlays only.
The digests below were recorded *before* the CCC step was inlined into
``CycloidOverlay._lookup_plain`` (PR 24) and are a sha256 over the
``(start, target, hops, path)`` of seeded lookups on

* full overlays, ``d`` in 3..8;
* sparse ones (30% and 5% population — singleton and empty clusters);
* full and sparse ones after ``leave`` / ``fail`` events with no
  stabilisation sweep, where ``_greedy_fallback`` and the deterministic
  clockwise mode carry the route (asserted with counting wrappers);
* full ones with routing entries knocked out by hand — one side of an
  inside leaf set, the cubical link — so the final phase takes its second
  choice and a route can fail to converge;

each under both ``routing_mode``s.  A digest that moves means some lookup
now takes a different path: the hop loop may get faster, never different.
To re-record after an *intended* routing change, run this file as a
script (``PYTHONPATH=src python tests/overlay/test_cycloid_path_digests.py``)
and paste the printed table.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.overlay.cycloid import CycloidId, CycloidOverlay

_MODES = ("adaptive", "msb")
_FULL = [("full", d, 100) for d in range(3, 9)]
_SPARSE = [("sparse", d, pct) for d in (4, 6, 8) for pct in (30, 5)]
#: (4, 5) is three nodes — too few to churn.
_CHURNED = [
    ("churned", d, pct) for d in (4, 6, 8) for pct in (100, 30, 5) if (d, pct) != (4, 5)
]
_MAIMED = [("maimed", d, 100) for d in (4, 6)]
_SCENARIOS = [
    (family, d, pct, mode)
    for family, d, pct in _FULL + _SPARSE + _CHURNED + _MAIMED
    for mode in _MODES
]

_DIGESTS: dict[str, str] = {
    "full-d3-100pct-adaptive": "7f841cb36b394b7ad797aa69da90ea1218ba2a775447a936b1325c925e2e9290",
    "full-d3-100pct-msb": "4408fa7755053477cb4bbb576c9dd6dcc4851ecb70ad1cad47a33452045855da",
    "full-d4-100pct-adaptive": "930368c2f296baaa5b020396987edc1b2fb0e77cf2c55899fd5df8fc6e3857cb",
    "full-d4-100pct-msb": "67bc29b6d7cd0268d60f3b859d1d4ad722d1b371d969d857c24ab0e925260114",
    "full-d5-100pct-adaptive": "42439aec1816ab7bb74872146d8db18eee636a839720b61ccfc35228de62c511",
    "full-d5-100pct-msb": "98d950596e3f5b3ce3f1ba098a66607b3bc613c19a724317d7b6814bf71d4182",
    "full-d6-100pct-adaptive": "1f6b58a1d1ddf62b8d300a77b07d3cb76e5af11b16c177354c7de3eeb6244494",
    "full-d6-100pct-msb": "38c50405665bd239822f1d6b224057c2c3383710e221c52b23183f3126af9394",
    "full-d7-100pct-adaptive": "06cac04ae17dd5c1a622c29c038e717fc75194c1f3e994b02d23a9b0ce8d5614",
    "full-d7-100pct-msb": "696996e75886df6cc2987e03fd61338669c4fbae877fa52daa6193134b7ea85c",
    "full-d8-100pct-adaptive": "656c1976057e57c7cd6dc901bdfa46e2321b4d1d87b1b3e651430b9fe722aa91",
    "full-d8-100pct-msb": "537938e268608f7f1d79c26f75b6c0f3f90f095952b836254dd509846cd2c366",
    "sparse-d4-30pct-adaptive": "a3bbc3892f5770ea9dcfa67644055a56435306d7ef3deef1b95b5ca24b50a907",
    "sparse-d4-30pct-msb": "75acc7ba83040d0e80a4b5dedbf6a712fdeccf566e6adace73e452bc6d15c09c",
    "sparse-d4-5pct-adaptive": "013dbdfc2ea930c9da39fb3d32b9c7361c12491d609fb7422614c01067655779",
    "sparse-d4-5pct-msb": "6ed18d54a8d47bd4566d7866a62825f9dcf3226523a49f8f334647d1dc10ce2f",
    "sparse-d6-30pct-adaptive": "7a89e5962432edf0ee2198850f909d9d479187a4db67f0ce79c2309f0c7ee1b7",
    "sparse-d6-30pct-msb": "659f90ba411fafcf4cce87b9395edae0a30cd81f56753b80a741fa221f61c92e",
    "sparse-d6-5pct-adaptive": "8511a0498abe35294c04beff6e01f0c3ad848823d95edbde717a0ed4d0488008",
    "sparse-d6-5pct-msb": "bb1c0de8b882b48bebadd0b02374779a86f2051636f35e190675d63aba7f45ca",
    "sparse-d8-30pct-adaptive": "4855ea662164ed83eebc4ef75284cebcb515a2dcfc84e5cac454357565514f14",
    "sparse-d8-30pct-msb": "7910b1c2a3f8d2957816a24c2fc7167497a9391b3f07156e83e0afc5ca03eb53",
    "sparse-d8-5pct-adaptive": "c582884099330dd5bf0bf1228e0cdcf6578578cbe9e82944e441c99f55d4f8de",
    "sparse-d8-5pct-msb": "86a63fe3e6c954203db447129be265308f682159d2fee181dd38a15e7d1d8bba",
    "churned-d4-100pct-adaptive": "571833aa77ed0900b0a1f4e8725d422136f6937cbcfdf142b07ca87c2e2ebf52",
    "churned-d4-100pct-msb": "78e554f6d60940e98550aed8b60caf759e9e16b979a9ee57465293796a3607ec",
    "churned-d4-30pct-adaptive": "e1b4438b30f65709cb1cf7c9f91201fc345dcb1f269aa5ebe3f70dbd42dd01d7",
    "churned-d4-30pct-msb": "88a683ccc9b0d360d5d923ade470425c792068c018bd735f0e5b542a813ce56c",
    "churned-d6-100pct-adaptive": "c35ff5dfec7798edc3062cd819c9310036ea59733cc32ac8b073a8c05df201dd",
    "churned-d6-100pct-msb": "4c7f2bf8901745ca4a73407ece8492fe4984a8f80a53103d30fcb232df8c890f",
    "churned-d6-30pct-adaptive": "99aaad17a41c5fcdb9acfff59fb0fd6a1ea47a5f27d6e56270865803cc74fcc6",
    "churned-d6-30pct-msb": "1bb2a4014bf0474ee30be9612dd013ecd1ead6f8645938f303acb79704c02e60",
    "churned-d6-5pct-adaptive": "b080494efdaf499df704a9734c8bbc1c2cf91441fb04ec0e21273bba4939b0f9",
    "churned-d6-5pct-msb": "6ec037c8128d139b72c5b6ce3175babd14d3b5ea73ff335f44187c715ab46c1f",
    "churned-d8-100pct-adaptive": "49bed927eef4d3cde3ebd3f376eba46909178b621ebe80c164dd48fb25671703",
    "churned-d8-100pct-msb": "763569fc4af1da323adfb22e424150469b87ae8f065bccaeb35a3e9b5f2a557e",
    "churned-d8-30pct-adaptive": "33567a5dbb956a27ded37c3ba4ea4428071f6b416de843acf3b14d80a8fa6bf7",
    "churned-d8-30pct-msb": "afe0ccaeee88e53cc31ee0d90471a2bf3dd378c6f65e68abc2723cb22c579739",
    "churned-d8-5pct-adaptive": "63c6618ae1ffefa20a7a84893c7ec27ff3ab7ce23a195b5facf66b0fb48e475b",
    "churned-d8-5pct-msb": "b94c9d2e868fc6dbba7b04419d789b6ca357775ea8e04a665d69342d0e3e16d1",
    "maimed-d4-100pct-adaptive": "09f52771cf4079af8e07e595b0a424a68ceb8fc4c3f2d0a18942e6798b6a6069",
    "maimed-d4-100pct-msb": "bf1c6840fa90fc5a8fbfebd742ddd0cb41f851c290c0515bf8aa89b32cff9a2a",
    "maimed-d6-100pct-adaptive": "6e8ed6e451d1d29f22c648f61caae33d1010d325c75eae2fc84bc25c108de644",
    "maimed-d6-100pct-msb": "08300e7f19cd64afbe734910a606b9fe7255b5258938b2d532a6346a4b628b8b",
}


def _name(family: str, d: int, pct: int, mode: str) -> str:
    return f"{family}-d{d}-{pct}pct-{mode}"


def _build(d: int, pct: int, mode: str) -> CycloidOverlay:
    overlay = CycloidOverlay(d, routing_mode=mode)
    all_ids = [CycloidId(k, a) for a in range(1 << d) for k in range(d)]
    if pct < 100:
        all_ids = random.Random(7).sample(all_ids, max(2, len(all_ids) * pct // 100))
    overlay.build(all_ids)
    return overlay


def _count_fallbacks(overlay: CycloidOverlay) -> dict[str, int]:
    """Wrap the two off-path steps on the instance; returns live counters."""
    calls = {"_greedy_fallback": 0, "_clockwise_hop": 0}
    for name in calls:
        inner = getattr(overlay, name)

        def counted(cur, owner, name=name, inner=inner):
            calls[name] += 1
            return inner(cur, owner)

        setattr(overlay, name, counted)
    return calls


def _probe(overlay: CycloidOverlay, rng: random.Random, lookups: int, digest) -> None:
    d = overlay.dimension
    for _ in range(lookups):
        ids = overlay.node_ids
        start = ids[rng.randrange(len(ids))]
        target = CycloidId(rng.randrange(d), rng.randrange(1 << d))
        try:
            result = overlay.lookup(overlay.node(start), target)
        except RuntimeError as stuck:  # "did not converge": where, after how many hops
            record = (tuple(start), tuple(target), str(stuck))
        else:
            assert result.owner is overlay.closest_node(target)
            record = (tuple(start), tuple(target), result.hops, [tuple(p) for p in result.path])
        digest.update(repr(record).encode())


def _run(family: str, d: int, pct: int, mode: str) -> tuple[str, dict[str, int]]:
    overlay = _build(d, pct, mode)
    calls = _count_fallbacks(overlay)
    rng = random.Random(13)
    digest = hashlib.sha256()
    if family == "maimed":
        for node in overlay.nodes():
            pred, succ = node.inside_leaf
            cut = rng.randrange(4)
            if cut == 0:
                node.inside_leaf = (None, succ)
            elif cut == 1:
                node.inside_leaf = (pred, None)
            elif cut == 2:
                node.cubical_neighbor = None
    _probe(overlay, rng, 200, digest)
    if family == "churned":
        # Departures repair their own neighbourhood only: far cubical and
        # cyclic links keep naming dead nodes until a sweep that never comes.
        for step in range(min(24, overlay.num_nodes // 3)):
            ids = overlay.node_ids
            victim = ids[rng.randrange(len(ids))]
            (overlay.leave if step % 2 else overlay.fail)(victim)
            _probe(overlay, rng, 25, digest)
    return digest.hexdigest(), calls


@pytest.mark.parametrize(
    "family,d,pct,mode", _SCENARIOS, ids=[_name(*s) for s in _SCENARIOS]
)
def test_paths_match_the_digest_recorded_before_the_inlining(family, d, pct, mode):
    digest, calls = _run(family, d, pct, mode)
    assert digest == _DIGESTS[_name(family, d, pct, mode)]
    if family == "full":
        assert calls == {"_greedy_fallback": 0, "_clockwise_hop": 0}
    if family == "churned":
        assert calls["_greedy_fallback"] and calls["_clockwise_hop"], calls


@pytest.mark.parametrize("_family,d,pct", _SPARSE)
def test_sparse_overlays_have_singleton_and_empty_clusters(_family, d, pct):
    overlay = _build(d, pct, "adaptive")
    sizes = [len(ks) for ks in overlay._clusters.values()]
    assert 1 in sizes
    assert len(sizes) < overlay.cubical_space.size


if __name__ == "__main__":
    for scenario in _SCENARIOS:
        print(f'    "{_name(*scenario)}": "{_run(*scenario)[0]}",')

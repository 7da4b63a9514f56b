"""Instance families: validity, hand-checked distances, parameters, file I/O."""

import hashlib
import json
import math

import numpy as np
import pytest

import fairstops as fs
from conftest import BAD_FIELD_VALUES, walk_bound_breaker, write_bad_field_value

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SQRT5 = math.sqrt(5.0)
INF = math.inf

ALL_TRSP_FAMILIES = [
    ("motivating", {}),
    ("jr-lower", {}),
    ("clustering-lb", {}),
    ("gc-jr-tight", {"eps": 0.01}),
    ("gc-core-tight", {"eps": 0.01, "h": 4}),
    ("eca-jr-tight", {"eps": 0.01}),
    ("kz", {"gamma": 1, "r": 2}),
    ("hybrid-jr-tight", {"lam": 0.5, "eps": 0.01}),
    ("hybrid-core-tight", {"lam": 0.5, "eps": 0.01, "delta": 0.5}),
]


@pytest.mark.parametrize("family,params", ALL_TRSP_FAMILIES)
def test_every_family_emits_a_valid_instance(family, params):
    inst = fs.generate(family, **params)
    assert fs.validate_instance(inst) == []
    assert 1 <= inst.k <= inst.m


def dist(inst, endpoint, side, label):
    i = next(j for j, lb in enumerate(inst.candidate_labels) if lb == label)
    agent, pos = endpoint
    return float(inst.walk.dist[inst.endpoints[agent][pos], inst.candidates[i]])


def test_jr_lower_hand_entries():
    inst = fs.generate("table3")  # alias for jr-lower
    assert dist(inst, (0, 0), 0, "t1") == pytest.approx(2 + SQRT3)
    assert dist(inst, (1, 0), 0, "t1") == pytest.approx(SQRT3)
    assert dist(inst, (2, 0), 0, "t2") == pytest.approx(2 + SQRT3)
    assert dist(inst, (0, 1), 1, "t4") == pytest.approx(2 + SQRT3)
    assert math.isinf(dist(inst, (0, 1), 1, "t1"))
    assert inst.n == 3 and inst.m == 6 and inst.k == 3


def test_gc_core_tight_hand_entries():
    eps = 0.01
    inst = fs.generate("gc-core-tight", eps=eps, h=10)
    assert inst.n == 150 and inst.m == 7 and inst.k == 5
    assert dist(inst, (0, 0), 0, "t1") == pytest.approx(1.0)
    assert dist(inst, (60, 0), 0, "t1") == pytest.approx(SQRT2 - 1)  # group 2 start
    assert dist(inst, (0, 0), 0, "t2") == pytest.approx(1 + SQRT2 - eps)
    assert dist(inst, (119, 0), 0, "t2") == pytest.approx(1 - (SQRT2 - 1) * eps)
    assert math.isinf(dist(inst, (0, 0), 0, "t3"))
    # Decoy stops sit at infinity from every endpoint.
    for decoy in ("t5", "t6", "t7"):
        assert math.isinf(dist(inst, (0, 0), 0, decoy))


def test_eca_jr_tight_hand_entries():
    eps = 0.01
    inst = fs.generate("eca-jr-tight", eps=eps)
    assert inst.n == 4 and inst.m == 4 and inst.k == 3
    assert dist(inst, (0, 0), 0, "t1") == pytest.approx(1.0)
    assert dist(inst, (1, 0), 0, "t1") == pytest.approx(SQRT2 - 1)
    assert dist(inst, (3, 0), 0, "t2") == pytest.approx(1 - eps / 4)
    assert dist(inst, (1, 1), 1, "t4") == pytest.approx(1 - eps / 4)
    # The closure trims the two long entries that the raw segments overprice.
    assert dist(inst, (0, 0), 0, "t2") == pytest.approx(1 + SQRT2 - eps / 4)
    assert dist(inst, (3, 0), 0, "t1") == pytest.approx(1 + SQRT2 - eps / 2)


def test_eca_jr_tight_without_gap_matches_raw_table():
    inst = fs.generate("eca-jr-tight", eps=0.0)
    assert dist(inst, (0, 0), 0, "t2") == pytest.approx(1 + SQRT2)
    assert dist(inst, (3, 0), 0, "t1") == pytest.approx(1 + SQRT2)


def test_gc_jr_tight_reconstruction_costs():
    eps = 0.01
    inst = fs.generate("fig5")  # alias, default eps=0.01
    sol, _ = fs.gc_trsp(inst)
    assert fs.agent_cost(inst, 0, sol) == pytest.approx(2 + SQRT5 - eps / 4)
    assert fs.agent_cost(inst, 2, sol) == pytest.approx(2 + SQRT5 - eps / 4)
    assert fs.agent_cost(inst, 1, sol) == pytest.approx((3 + SQRT5) / 2 - eps / 4)
    assert fs.agent_cost(inst, 0, (0, 1)) == pytest.approx(1.0)
    assert fs.agent_cost(inst, 1, (0, 1)) == pytest.approx((SQRT5 - 1) / 2)


def test_hybrid_jr_tight_geometry_scales_with_lam():
    lam, eps = 0.25, 0.01
    inst = fs.generate("hybrid-jr-tight", lam=lam, eps=eps)
    dh = (math.sqrt(lam * lam + 10 * lam + 9) - lam - 1) / 4
    assert dist(inst, (3, 0), 0, "t1") == pytest.approx(dh)
    assert dist(inst, (4, 0), 0, "y1") == 0.0
    delta = eps * dh / 2
    g_top = dist(inst, (3, 0), 0, "y1")
    g_bot = dist(inst, (1, 1), 1, "y2")
    assert g_top == pytest.approx(lam * (1 - delta))
    assert g_bot == pytest.approx(1 - delta / 2)
    # y1 triggers before the cross pair {t1, y2}, and y2 before t2.
    assert g_top / lam < g_bot < 1
    for far in ("y3", "y4", "y5", "y6"):
        assert math.isinf(dist(inst, (0, 0), 0, far))
    # At lam=1 the inner gap collapses to the golden section of the gc family.
    one = fs.generate("hybrid-jr-tight", lam=1.0, eps=eps)
    assert dist(one, (3, 0), 0, "t1") == pytest.approx((SQRT5 - 1) / 2)


def test_kz_family_sizes_and_edges():
    inst = fs.generate("kz", gamma=1, r=2)
    assert (inst.n, inst.m, inst.k) == (6, 9, 6)
    assert dist(inst, (0, 0), 0, "t1") == 0.0  # vertex agents sit on the vertices
    assert dist(inst, (1, 0), 0, "t21") == pytest.approx(1.0)
    assert dist(inst, (1, 0), 0, "t1") == pytest.approx(2.0)
    assert math.isinf(dist(inst, (0, 0), 0, "t2"))
    larger = fs.generate("kz", gamma=2, r=3)
    z = math.ceil(3 / 2 * 2 + 1)  # 4
    assert larger.m == z * z and larger.k == z * z - z
    assert larger.n == (z * z - z) * 3 // 2


def test_kz_family_multi_digit_vertices_stay_distinct():
    # gamma=10, r=12 puts 12 vertices in play; stop names must not collide.
    inst = fs.generate("kz", gamma=10, r=12)
    assert inst.m == 144 and inst.k == 132
    assert len(set(inst.candidates.tolist())) == inst.m
    assert len(set(inst.candidate_labels)) == inst.m
    assert fs.validate_instance(inst) == []


def test_hybrid_core_tight_hand_entries():
    lam, eps, delta = 0.5, 0.01, 0.5
    inst = fs.generate("hybrid-core-tight", lam=lam, eps=eps, delta=delta)
    h = math.ceil(2 / delta)
    assert inst.n == 4 * h and inst.m == 12 and inst.k == 8
    q = (math.sqrt(4 * lam * lam + 12 * lam + 1) - 2 * lam - 1) / (4 * lam)
    assert dist(inst, (0, 0), 0, "t1") == pytest.approx(1.0)
    assert dist(inst, (0, 0), 0, "c1") == pytest.approx(1 + q + 1 / (2 * lam) - eps)
    assert dist(inst, (2 * (h - 1), 0), 0, "t1") == pytest.approx(q)  # group 3 start
    assert dist(inst, (4 * h - 4, 0), 0, "t1") == pytest.approx(1 + q)  # group 5 start
    for far in ("c5", "c6", "c7", "c8"):
        assert math.isinf(dist(inst, (0, 0), 0, far))


def test_clustering_lb_structure():
    inst = fs.generate("clustering-lb")
    assert inst.n == 6 and inst.m == 9 and inst.k == 6
    clustering = fs.induce_clustering(inst)
    assert clustering.n == 12 and clustering.m == 9 and clustering.k == 6
    d = inst.walk.dist
    x1, x8 = inst.endpoints[0]
    x4, x5 = inst.endpoints[1]
    # Unit T-shape arms within a group; groups mutually unreachable.
    assert d[x1, x4] == 1.0
    assert d[x5, x8] == 1.0
    assert math.isinf(d[x1, x5])
    # The adversarial pairing gives both cross agents a unit-cost escape pair.
    t = (0, 3)  # candidates x1 and x5
    assert fs.agent_cost(inst, 0, t) == pytest.approx(1.0)
    assert fs.agent_cost(inst, 1, t) == pytest.approx(1.0)


def test_motivating_grid():
    inst = fs.generate("fig1")
    assert inst.n == 6 and inst.m == 4 and inst.k == 3
    # Each of the four parallel commuters is one unit from c1 and c4.
    for agent in range(4):
        assert fs.agent_cost(inst, agent, (0, 3)) == pytest.approx(2.0)
    witness = fs.jr_violation(inst, (0, 1, 2), 1.0)
    assert witness is not None
    assert set(witness.coalition) == {0, 1, 2, 3}


def test_decoy_stops_never_appear_in_witnesses():
    for family, params, alg in (
        ("gc-core-tight", {"eps": 0.01, "h": 3}, fs.gc_trsp),
        ("hybrid-core-tight", {"lam": 0.5, "eps": 0.01, "delta": 0.5}, lambda i: fs.hybrid(i, 0.5)),
    ):
        inst = fs.generate(family, **params)
        eps_points = inst.endpoints.reshape(-1)
        decoys = {
            j
            for j in range(inst.m)
            if np.all(np.isinf(inst.walk.dist[eps_points, inst.candidates[j]]))
        }
        sol, _ = alg(inst)
        assert not decoys & set(sol)
        report = fs.jr_ratio(inst, sol)
        if report.witness:
            assert not decoys & set(report.witness.deviation)
        core = fs.core_ratio(inst, sol, 2)
        if core.witness:
            assert not decoys & set(core.witness.deviation)


def test_family_param_validation():
    with pytest.raises(ValueError):
        fs.generate("gc-jr-tight", eps=-0.5)
    with pytest.raises(ValueError):
        fs.generate("hybrid-jr-tight", lam=0.0, eps=0.01)
    with pytest.raises(ValueError):
        fs.generate("kz", gamma=0.5, r=2)
    with pytest.raises(ValueError):
        fs.generate("kz", gamma=1, r=1)
    for gamma, r in ((40, 2), (8.5, 2), (11, 3)):  # 81, 18 and 18 vertices, over 17
        with pytest.raises(ValueError, match="^gamma must give at most 17 vertices"):
            fs.generate("kz", gamma=gamma, r=r)
    with pytest.raises(ValueError):
        fs.generate("gc-core-tight", eps=0.01, h=0)
    with pytest.raises(ValueError):
        fs.generate("jr-lower", eps=0.01)  # family takes no parameters
    with pytest.raises(ValueError):
        fs.generate("no-such-family")


def test_generate_accepts_aliases():
    inst = fs.generate("ECA_JR_TIGHT_TABLE5", eps=0.02)
    assert inst == fs.generate("eca-jr-tight", eps=0.02) and inst.n == 4
    assert fs.canonical_family("fig7") == "line-pf"
    assert fs.canonical_family("GC_CORE_TIGHT_TABLE4") == "gc-core-tight"
    with pytest.raises(ValueError):
        fs.generate("table3", eps=0.1)


def test_line_family():
    line = fs.generate("line-pf")
    assert line.datapoints == (1.0, 3.0, 8.0, 10.0)
    assert line.centers == (2.0, 6.0, 9.0, 13.0)
    assert line.k == 2 and line.ell == 1
    with pytest.raises(ValueError):
        fs.generate("line-pf", ell=5)


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------


def test_random_euclidean_deterministic():
    a = fs.random_euclidean(6, 5, 3, seed=42)
    b = fs.random_euclidean(6, 5, 3, seed=42)
    assert a == b
    c = fs.random_euclidean(6, 5, 3, seed=43)
    assert a != c


def test_random_euclidean_null_flag_and_modes():
    assert fs.random_euclidean(4, 4, 2, seed=1).null_transit
    scaled = fs.random_euclidean(4, 4, 2, seed=1, transit="scaled", factor=2.0)
    assert not scaled.null_transit
    cand = scaled.candidates
    assert np.allclose(
        scaled.transit.dist, 2.0 * scaled.walk.dist[np.ix_(cand, cand)]
    )
    with pytest.raises(ValueError):
        fs.random_euclidean(4, 4, 2, seed=1, transit="bogus")
    with pytest.raises(ValueError):
        fs.random_euclidean(4, 2, 3, seed=1)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        fs.random_euclidean(4, 4, 2, seed=-1)


@pytest.mark.parametrize("factor", [math.nan, math.inf, -1.0])
def test_random_euclidean_rejects_bad_factor(factor):
    with pytest.raises(ValueError, match="factor"):
        fs.random_euclidean(4, 4, 2, seed=1, transit="scaled", factor=factor)


def test_random_metric_transit_valid_on_100_seeds():
    for seed in range(100):
        inst = fs.random_euclidean(3, 4, 2, seed, transit="random")
        assert inst.transit.violations() == []


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


def test_round_trip_family_instance(tmp_path):
    inst = fs.generate("jr-lower")
    path = tmp_path / "t3.json"
    fs.write_instance(inst, path)
    again = fs.read_instance(path)
    assert again == inst
    assert math.isinf(again.walk.dist[inst.endpoints[0][0], inst.candidates[3]])


def test_round_trip_random_instance(tmp_path):
    inst = fs.random_euclidean(5, 4, 2, seed=3, transit="random")
    path = tmp_path / "r.json"
    fs.write_instance(inst, path)
    assert fs.read_instance(path) == inst


def file_sha256(inst, path) -> str:
    fs.write_instance(inst, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


# sha256 of the written file of every named placement family at its defaults,
# plus two non-default parameter sets ("kz" at z = 10 takes the dotted labels).
FAMILY_FILE_SHA256 = {
    "clustering-lb": "ffaf9cbf1490d35ef57ce2e4056df16279f0d9069d827893e643118958e902e4",
    "eca-jr-tight": "ab055cead86a641b9db77d4d8ad6d40ddcb9bdd68c611584bf22fcbb3720d6fa",
    "gc-core-tight": "660ce3fd9398b4dc1f2a7675efbd3de3cfee398668e80851bffa431b0b4b9d17",
    "gc-jr-tight": "bede159d0927fa73658abefbfc9c81b4de9d5f2b0a12e46f9f87d976c54ccede",
    "hybrid-core-tight": "33644641551551fd85d6620e5053a6f878f91c6fa1ea7a0f4015e8de29e2454e",
    "hybrid-jr-tight": "97075e9aa881c2022c272c579d8f13eb369aa6531f56c9170b8489e11ddc9ecb",
    "jr-lower": "46159f04854819c40c50d2381b88f7fcddda9cf9f7a938c191e9c3d06a020277",
    "kz": "eb218e8ea3a3b9ba294be9f8a5719edce07d68d96158c42b40019b05e0fc4cc5",
    "motivating": "568ee40f0ff39d07c026828c9fe99d6d24af9b7bc6977b11c5317f0cd1d7732f",
    "kz gamma=4.5 r=2": "50e948f8a4fc0d46af5d60ca63b577b85c2340a07d00e44b3abd33e6542b5e0d",
    "hybrid-jr-tight lam=0.25 eps=0.05":
        "9da0108803b4d25301946aecf0c925a0c28cab30b5d3b8581e96b67c82041fb8",
}

# sha256 of the written file of random_euclidean(30, 9, 3, seed, mode, factor=0.7).
RANDOM_FILE_SHA256 = {
    "null 0": "92ad6197d0e5ea62cda0431f12508bb9e24cad4de97f1021e26730e70c0870a8",
    "null 1": "08715d1b75058b01d1a602ad17dd9fd194f47b05cf546e94395acf6ee4f71b0c",
    "null 2": "15d486d6af7d2ab0892acf00eaf0244d3cddbb31bd8e84f3dc0ba33384fc122c",
    "scaled 0": "4781d6323a27b7ee5311449262a5ce057d421f2875d1e8b9f161f20fc1d8ebd6",
    "scaled 1": "03fa2769608a6f95efc4124564e57ca4d3c25fed57999187ac93b834f41be245",
    "scaled 2": "88db80855a95054deffacce2ed106a65122a4f1257c5cb828989a874495e2d9a",
    "random 0": "8c99ab2650faeedf8ab3c6dccb79c40325db631e65c68f5b8957ea8a3ce23613",
    "random 1": "276a049fb28fbf6214429102821e752069d479b81b07ee68a3e7e8927a673d7f",
    "random 2": "a11a10ae09dbf92b4281289703421395a5df3ed9578b7d00fe045bd660d1215e",
}


def test_family_files_are_golden(tmp_path):
    got = {}
    for key in FAMILY_FILE_SHA256:
        name, *assignments = key.split()
        params = {a: float(v) for a, v in (s.split("=") for s in assignments)}
        got[key] = file_sha256(fs.generate(name, **params), tmp_path / "f.json")
    assert sorted(name for name in got if " " not in name) == sorted(
        name for name in fs.FAMILIES if name != "line-pf")
    assert got == FAMILY_FILE_SHA256


def test_random_files_are_golden(tmp_path):
    got = {}
    for key in RANDOM_FILE_SHA256:
        mode, seed = key.split()
        inst = fs.random_euclidean(30, 9, 3, int(seed), transit=mode, factor=0.7)
        got[key] = file_sha256(inst, tmp_path / "r.json")
    assert got == RANDOM_FILE_SHA256


def test_inf_encoded_as_string(tmp_path):
    inst = fs.generate("jr-lower")
    path = tmp_path / "t3.json"
    fs.write_instance(inst, path)
    doc = json.loads(path.read_text())
    assert "inf" in doc["walk"]
    assert all(not isinstance(v, float) or math.isfinite(v) for v in doc["walk"])


def test_reader_accepts_any_key_order(tmp_path):
    inst = fs.generate("eca-jr-tight", eps=0.01)
    path = tmp_path / "a.json"
    fs.write_instance(inst, path)
    doc = json.loads(path.read_text())
    flipped = {key: doc[key] for key in reversed(list(doc))}
    path2 = tmp_path / "b.json"
    path2.write_text(json.dumps(flipped))
    assert fs.read_instance(path2) == inst


def test_missing_field_named_in_error(tmp_path):
    inst = fs.generate("eca-jr-tight", eps=0.01)
    path = tmp_path / "a.json"
    fs.write_instance(inst, path)
    doc = json.loads(path.read_text())
    del doc["transit"]
    path.write_text(json.dumps(doc))
    with pytest.raises(fs.InstanceParseError, match="transit"):
        fs.read_instance(path)


def test_truncated_file_reports_position(tmp_path):
    inst = fs.generate("eca-jr-tight", eps=0.01)
    path = tmp_path / "a.json"
    fs.write_instance(inst, path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(fs.InstanceParseError, match="line"):
        fs.read_instance(path)


@pytest.mark.parametrize("data", [b'{"n": 1' + b"0" * 5000 + b"}", b'{"n": "\xff"}'],
                         ids=["integer-past-digit-limit", "not-utf8"])
def test_undecodable_file_is_a_parse_error(tmp_path, data):
    # json raises a plain ValueError for these, not a JSONDecodeError.
    path = tmp_path / "a.json"
    path.write_bytes(data)
    with pytest.raises(fs.InstanceParseError, match="unreadable JSON"):
        fs.read_instance(path)


def test_wrong_triangle_length_reports_field(tmp_path):
    inst = fs.generate("eca-jr-tight", eps=0.01)
    path = tmp_path / "a.json"
    fs.write_instance(inst, path)
    doc = json.loads(path.read_text())
    doc["walk"] = doc["walk"][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(fs.InstanceParseError, match="walk"):
        fs.read_instance(path)


@pytest.mark.parametrize("field, index, value", BAD_FIELD_VALUES)
def test_bad_value_reports_field(tmp_path, field, index, value):
    path = tmp_path / "a.json"
    write_bad_field_value(path, field, index, value)
    with pytest.raises(fs.InstanceParseError, match=f"'{field}'"):
        fs.read_instance(path)


@pytest.mark.parametrize("field, value, named", [
    pytest.param(None, [1, 2], "top level must be an object", id="top-level-list"),
    pytest.param("endpoints", [[0, 1]], "field 'endpoints' must list 4 pairs",
                 id="endpoints-count"),
    pytest.param("endpoints", [[0, 1]] * 3 + [5], "field 'endpoints' entries must be pairs",
                 id="endpoints-entry"),
    pytest.param("endpoints", [[0, 1]] * 3 + [[0, 12]], "endpoint index out of range [0, 12)",
                 id="endpoints-range"),
    pytest.param("candidates", [8, 9], "field 'candidates' must list 4 indices",
                 id="candidates-count"),
    pytest.param("labels", ["a"], "field 'labels' must list 4 names", id="labels-count"),
    pytest.param("k", 5, "budget k=5 outside [1, m=4]", id="budget-over-m"),
])
def test_reader_refuses_a_malformed_structure(tmp_path, field, value, named):
    path = tmp_path / "a.json"
    if field is None:
        path.write_text(json.dumps(value))
    else:
        write_bad_field_value(path, field, None, value)
    with pytest.raises(fs.InstanceParseError) as refused:
        fs.read_instance(path)
    assert str(refused.value) == f"{path}: {named}"


def test_reader_refuses_a_broken_walk_bound(tmp_path):
    path = tmp_path / "bent.json"
    fs.write_instance(walk_bound_breaker(), path)
    with pytest.raises(fs.InstanceParseError,
                       match="field 'walk': agent 0's walk 10.0 exceeds its route 2.0"):
        fs.read_instance(path)

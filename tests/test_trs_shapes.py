"""The TRS-Tree's shape, pinned to what the pointer-tree implementation built.

Before the leaf table became the whole tree, the tree kept interior nodes
beside it; the literals below were recorded from that implementation, and
the leaf table must reproduce every one exactly — each split and merge
decision, the order candidates are taken in, the skip of candidates inside
a node rebuilt meanwhile, the size accounting and the summation order of
the false-positive estimate.  27 of the cases were re-recorded once, when
the log-linear leaf family went (a leaf chooses between a line and a
piecewise line): none of them grew in leaves, outliers or bytes.

A case builds a tree over 3,000 rows of one correlation at one fanout, then

* ``build`` — nothing more;
* ``insert_many+reorganize`` — one off-line ``insert_many`` of 1,000 rows
  (out-of-domain targets and off-band hosts among them), ``reorganize()``;
* ``insert_many+reorganize_children`` — the same batch, then
  ``reorganize_children([0, fanout - 1])`` and ``reorganize()``;
* ``churn+reorganize`` — deletes of every other row in [200, 600]
  (merge flags), 100 cross-leaf updates and 200 off-band inserts, each
  written as a batch of one,
  then ``reorganize(max_candidates=2)`` and ``reorganize()``.

Pinned per case: leaves, height, outliers, ``memory_bytes()``,
``estimated_fp_ratio()``, ``pending_reorganizations`` before reorganizing,
what ``reorganize()`` returned, ``pending_reorganizations`` after, and a
SHA-1 of the leaves' bounds and heights in key order.

One more pin holds a tree at scale — the synthetic workload's 100,000-row
sigmoid table, recorded before the build dropped ``np.quantile`` and the
per-child masks — down to every model coefficient, and counts the line fits
and quantiles its build computes.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import Counter

import numpy as np
import pytest

from repro.core import regression
from repro.core.config import TRSTreeConfig
from repro.core.trs_tree import TRSTree
from repro.workloads.synthetic import generate_synthetic

ROWS = 3000
DATASETS = ("linear", "sigmoid", "sine", "noisy_linear")
FANOUTS = (2, 3, 8)
SCENARIOS = ("build", "insert_many+reorganize",
             "insert_many+reorganize_children", "churn+reorganize")

# (leaves, height, outliers, bytes, fp ratio, pending before, reorganized,
#  pending after, digest)
PINNED = {
    "linear/2/build": (
        1, 1, 0, 88, 0.0006662225183211193, None, None, 0,
        "d3b021d83c1635a20333f5d440a746059b3d2265"),
    "linear/2/insert_many+reorganize": (
        1, 1, 294, 9496, 0.0005393743257820927, 0, 0, 0,
        "d3b021d83c1635a20333f5d440a746059b3d2265"),
    "linear/2/insert_many+reorganize_children": (
        1, 1, 294, 9496, 0.0004172418802682553, 0, 0, 0,
        "d3b021d83c1635a20333f5d440a746059b3d2265"),
    "linear/2/churn+reorganize": (
        42, 10, 674, 27560, 0.02704014046681971, 1, (1, 0), 0,
        "b4ee0a9b09c8ae3c1c3c34feefe827134e153d32"),
    "linear/3/build": (
        1, 1, 0, 88, 0.0006662225183211192, None, None, 0,
        "da8bac6ad2efc0d3e82e6c628143f23ed03814dc"),
    "linear/3/insert_many+reorganize": (
        1, 1, 300, 9688, 0.0005402485143165855, 0, 0, 0,
        "da8bac6ad2efc0d3e82e6c628143f23ed03814dc"),
    "linear/3/insert_many+reorganize_children": (
        1, 1, 300, 9688, 0.0004169270953226125, 0, 0, 0,
        "da8bac6ad2efc0d3e82e6c628143f23ed03814dc"),
    "linear/3/churn+reorganize": (
        63, 6, 768, 32104, 0.02803246945069414, 1, (1, 0), 0,
        "d10a7a7ce4510ce2e69b2f1c4c20efeb76f54d85"),
    "linear/8/build": (
        1, 1, 0, 88, 0.0006662225183211193, None, None, 0,
        "81295115f63b0759a5ef4b20524866340069b417"),
    "linear/8/insert_many+reorganize": (
        1, 1, 278, 8984, 0.0005370569280343716, 0, 0, 0,
        "81295115f63b0759a5ef4b20524866340069b417"),
    "linear/8/insert_many+reorganize_children": (
        1, 1, 278, 8984, 0.00041721130089826135, 0, 0, 0,
        "81295115f63b0759a5ef4b20524866340069b417"),
    "linear/8/churn+reorganize": (
        127, 4, 782, 38072, 0.04118608824438009, 1, (1, 0), 0,
        "ed88f51a6b7e4214aed7828860061fcf3bc69f07"),
    "sigmoid/2/build": (
        18, 6, 133, 6792, 0.012400728568233243, None, None, 0,
        "925478371078e0254a9725a7d32acdfef080a1d8"),
    "sigmoid/2/insert_many+reorganize": (
        41, 10, 470, 20888, 0.03249497749229537, 11, 11, 0,
        "c7759e1cd6e6fb775bdd5b49c3e5602a344fc2f5"),
    "sigmoid/2/insert_many+reorganize_children": (
        41, 10, 423, 19384, 0.06872834158210246, 11, 0, 0,
        "00d7036ca58dfac4a2a43d704c70140805870f54"),
    "sigmoid/2/churn+reorganize": (
        63, 9, 853, 36312, 0.05540808924987477, 20, (2, 9), 0,
        "a251fce8d8ef24141082ab5a5acb207f639bd4ef"),
    "sigmoid/3/build": (
        25, 4, 27, 3832, 0.016727540075169068, None, None, 0,
        "820bd15450fd52b09a3a8420f95fda60be8df2f2"),
    "sigmoid/3/insert_many+reorganize": (
        59, 10, 563, 25064, 0.020585786510233323, 4, 4, 0,
        "ec206900460b3ab18fe33a00c687abdef0676dc8"),
    "sigmoid/3/insert_many+reorganize_children": (
        67, 10, 641, 28520, 0.037752712220700896, 4, 2, 0,
        "fbedb8b7d49e698ad6abdbc8ac15ab24bc8b8e97"),
    "sigmoid/3/churn+reorganize": (
        89, 7, 935, 40568, 0.06738061139193453, 18, (2, 10), 0,
        "7cfa3000093e7f31872e1d98f79998025f9ed825"),
    "sigmoid/8/build": (
        64, 3, 66, 8680, 0.04442646240574069, None, None, 0,
        "0cec93c6b1df376dc855e0641635d770cf30b9da"),
    "sigmoid/8/insert_many+reorganize": (
        211, 10, 699, 44056, 0.04880209552903502, 23, 23, 0,
        "89c1d0a78313b83c1f54ee75cde57c46dcd5d9cf"),
    "sigmoid/8/insert_many+reorganize_children": (
        211, 10, 696, 43960, 0.04877945671637059, 23, 15, 0,
        "89c1d0a78313b83c1f54ee75cde57c46dcd5d9cf"),
    "sigmoid/8/churn+reorganize": (
        183, 4, 945, 49048, 0.08511492554454876, 32, (2, 17), 0,
        "3e2a9969fcad7df9a85ed33246682c9d371b8236"),
    "sine/2/build": (
        38, 8, 114, 9064, 0.026977543054005817, None, None, 0,
        "5703c370019bbe5cfd1855eeabec1b6c52fe7670"),
    "sine/2/insert_many+reorganize": (
        80, 10, 734, 34952, 0.04468969148631955, 17, 17, 0,
        "cda6159cd1b6ed9331b80613ef2be8c838b142ef"),
    "sine/2/insert_many+reorganize_children": (
        96, 10, 813, 39784, 0.05334332255959866, 17, 0, 0,
        "cf708e4619085ca54f1e366353d66466e78148dd"),
    "sine/2/churn+reorganize": (
        90, 10, 842, 39848, 0.07534432312881768, 35, (2, 20), 0,
        "e547fd11849e0cc6038922f15bdc33dc020e9cea"),
    "sine/3/build": (
        79, 6, 111, 13000, 0.05652771524704859, None, None, 0,
        "a57aab1bb3dfde39eb4c817afbd7d7e99a6f4d3a"),
    "sine/3/insert_many+reorganize": (
        159, 10, 717, 41992, 0.07977823040262083, 21, 21, 0,
        "aa9e6ab89adb04950b7707419c07fb19f82cccc4"),
    "sine/3/insert_many+reorganize_children": (
        161, 10, 757, 43512, 0.07966604083090074, 21, 9, 0,
        "81d2902a26da61f70cf47542346b050c42b00972"),
    "sine/3/churn+reorganize": (
        123, 7, 882, 42952, 0.09232285561504304, 40, (2, 22), 0,
        "bd38aff100dd148dbaae636c9ce32fa6ed71a5fe"),
    "sine/8/build": (
        204, 4, 401, 33800, 0.1026376510755463, None, None, 0,
        "e85a63a66cc3369a7816959af26a0f9b489537ec"),
    "sine/8/insert_many+reorganize": (
        414, 10, 1328, 85064, 0.13296828088030185, 24, 24, 0,
        "339bf1189ec456ba638f540c7be0b4f93bc74405"),
    "sine/8/insert_many+reorganize_children": (
        400, 10, 1277, 81992, 0.1313702899131996, 24, 18, 0,
        "35e759648644a465204c8becf43a90423924cc49"),
    "sine/8/churn+reorganize": (
        253, 4, 1074, 60376, 0.13946377048305328, 34, (2, 23), 0,
        "5e3ef9987c4de034b6d95c267ad2a4a0188b6e8a"),
    "noisy_linear/2/build": (
        1, 1, 139, 4536, 0.0006662225183211193, None, None, 0,
        "7070ae500647859e318bef352bbb7c5294d2b0b2"),
    "noisy_linear/2/insert_many+reorganize": (
        111, 10, 1562, 65912, 0.05142936294937636, 1, 1, 0,
        "fa43379f3328e62f4aa11a9e97c45932fdff254d"),
    "noisy_linear/2/insert_many+reorganize_children": (
        111, 10, 1562, 65912, 0.05142936294937636, 1, 0, 0,
        "fa43379f3328e62f4aa11a9e97c45932fdff254d"),
    "noisy_linear/2/churn+reorganize": (
        74, 9, 1188, 48616, 0.040240809425799336, 1, (1, 0), 0,
        "06787d2e78aab43cf24723340462f28754d69a29"),
    "noisy_linear/3/build": (
        1, 1, 134, 4376, 0.0006662225183211192, None, None, 0,
        "511abd17be11bdb0239bafbe15bcf52d2e264c82"),
    "noisy_linear/3/insert_many+reorganize": (
        123, 10, 1274, 55496, 0.05253574169107844, 1, 1, 0,
        "710f7e3a808faef8b97e8e0dc09940157a338fa0"),
    "noisy_linear/3/insert_many+reorganize_children": (
        123, 10, 1274, 55496, 0.05253574169107844, 1, 0, 0,
        "710f7e3a808faef8b97e8e0dc09940157a338fa0"),
    "noisy_linear/3/churn+reorganize": (
        123, 7, 1360, 58248, 0.07356204641076201, 1, (1, 0), 0,
        "4e420fc179ff6398391b0813551e25be7ba022c0"),
    "noisy_linear/8/build": (
        1, 1, 128, 4184, 0.0006662225183211193, None, None, 0,
        "fced4ee3b4547ab2042f7bc76a78eb01d14c3b95"),
    "noisy_linear/8/insert_many+reorganize": (
        351, 10, 1634, 88376, 0.07446745953184622, 1, 1, 0,
        "1ce912afa0277c95fc2854c54caf80c98fefcb5e"),
    "noisy_linear/8/insert_many+reorganize_children": (
        351, 10, 1634, 88376, 0.07446745953184622, 1, 0, 0,
        "1ce912afa0277c95fc2854c54caf80c98fefcb5e"),
    "noisy_linear/8/churn+reorganize": (
        204, 4, 1315, 63048, 0.06788486116373983, 1, (1, 0), 0,
        "36ecd46613e6861d0401f14ac8521fa224b88a7c"),
}


def correlated(kind: str, targets: np.ndarray, rng) -> np.ndarray:
    if kind == "linear":
        return 2.0 * targets + 5.0
    if kind == "sigmoid":
        return 1000.0 / (1.0 + np.exp(-(targets - 500.0) / 50.0))
    if kind == "sine":
        return np.sin(targets / 20.0) * 1000.0
    hosts = 2.0 * targets + 5.0
    noisy = rng.random(targets.size) < 0.05
    hosts[noisy] = rng.uniform(0.0, 2005.0, size=int(noisy.sum()))
    return hosts


def digest(tree: TRSTree) -> str:
    table = tree._table
    bounds = [table.domain.low, *table.bounds, table.domain.high]
    sha = hashlib.sha1(np.asarray(bounds, dtype=np.float64).tobytes())
    sha.update(np.asarray([len(path) + 1 for path in table.paths],
                          dtype=np.int64).tobytes())
    return sha.hexdigest()


def run(kind: str, fanout: int, scenario: str) -> tuple:
    rng = np.random.default_rng(DATASETS.index(kind) * 10 + fanout)
    targets = rng.uniform(0.0, 1000.0, size=ROWS)
    store = [targets, correlated(kind, targets, rng), np.arange(ROWS)]
    tree = TRSTree(TRSTreeConfig(node_fanout=fanout))
    tree.build(*store)

    def provider(key_range):
        mask = (store[0] >= key_range.low) & (store[0] <= key_range.high)
        return store[0][mask], store[1][mask], store[2][mask]

    pending_before = reorganized = None
    if scenario.startswith("insert_many"):
        count = ROWS // 3
        new_targets = rng.uniform(-100.0, 1100.0, size=count)
        new_hosts = correlated(kind, new_targets, rng)
        wild = rng.random(count) < 0.3
        new_hosts[wild] = rng.uniform(-2000.0, 4000.0, size=int(wild.sum()))
        new_tids = np.arange(ROWS, ROWS + count)
        tree.insert_many(new_targets, new_hosts, new_tids)
        store = [np.concatenate([a, b]) for a, b in
                 zip(store, (new_targets, new_hosts, new_tids))]
        pending_before = tree.pending_reorganizations
        if scenario.endswith("children"):
            tree.reorganize_children(provider, [0, fanout - 1])
            tree.check_invariants()
        reorganized = tree.reorganize(provider)
    elif scenario == "churn+reorganize":
        targets, hosts, tids = (column.copy() for column in store)
        live = np.ones(ROWS, dtype=bool)
        for row in np.flatnonzero((targets >= 200.0) & (targets <= 600.0))[::2]:
            tree.delete_many(targets[row:row + 1], hosts[row:row + 1],
                             tids[row:row + 1])
            live[row] = False
        for row in np.flatnonzero((targets > 600.0) & (targets <= 800.0))[:100]:
            new_target = float(targets[row]) + 150.0
            new_host = float(rng.uniform(-2000.0, 4000.0))
            tree.update_many(targets[row:row + 1], hosts[row:row + 1],
                             [new_target], [new_host], tids[row:row + 1],
                             tids[row:row + 1])
            targets[row], hosts[row] = new_target, new_host
        count = 200
        new_targets = rng.uniform(-100.0, 1100.0, size=count)
        new_hosts = rng.uniform(-2000.0, 4000.0, size=count)
        new_tids = np.arange(ROWS, ROWS + count)
        for position in range(count):
            run = slice(position, position + 1)
            tree.insert_many(new_targets[run], new_hosts[run], new_tids[run])
        store = [np.concatenate([a[live], b]) for a, b in
                 zip((targets, hosts, tids), (new_targets, new_hosts, new_tids))]
        pending_before = tree.pending_reorganizations
        reorganized = (tree.reorganize(provider, max_candidates=2),
                       tree.reorganize(provider))
    tree.check_invariants()
    return (tree.num_leaves, tree.height, tree.num_outliers,
            tree.memory_bytes(), tree.estimated_fp_ratio(), pending_before,
            reorganized, tree.pending_reorganizations, digest(tree))


@pytest.mark.parametrize("case", sorted(PINNED))
def test_shape_matches_the_pointer_tree(case):
    kind, fanout, scenario = case.split("/")
    assert run(kind, int(fanout), scenario) == PINNED[case]


def test_every_case_is_pinned():
    assert sorted(PINNED) == sorted(
        f"{kind}/{fanout}/{scenario}" for kind in DATASETS
        for fanout in FANOUTS for scenario in SCENARIOS)


def model_digest(tree: TRSTree) -> str:
    """SHA-1 of every leaf's model family and coefficients, in key order."""
    sha = hashlib.sha1()
    for model in tree._table.models:
        sha.update(type(model).__name__.encode())
        sha.update(np.hstack([np.ravel(field) for field in
                              dataclasses.astuple(model)]).astype(np.float64)
                   .tobytes())
    return sha.hexdigest()


def test_sigmoid_tree_at_scale_is_pinned():
    dataset = generate_synthetic(100_000, "sigmoid", seed=3)
    tree = TRSTree()
    tree.build(dataset.columns["colC"], dataset.columns["colB"],
               np.arange(100_000))
    assert (tree.num_leaves, tree.height, tree.num_outliers,
            tree.memory_bytes(), tree.estimated_fp_ratio()) == (
        64, 3, 2967, 101512, 0.0012876926729727088)
    assert digest(tree) == "a258a529fc6fd67b134a4487751b3ff41563ca33"
    assert model_digest(tree) == "cc83d05826d6591df50aa8afa5b2e265d9482f7d"


def test_sigmoid_tree_at_scale_computes_each_fit_once(monkeypatch):
    """The scale pin's build, counted: a candidate that refits a line
    another already fitted, or a quantile computed twice, shows here
    while the tree stays the same."""
    calls = Counter()

    def counting(name):
        function = getattr(regression, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return counted

    for name in ("fit_linear", "quantile"):
        monkeypatch.setattr(regression, name, counting(name))
    dataset = generate_synthetic(100_000, "sigmoid", seed=3)
    tree = TRSTree()
    tree.build(dataset.columns["colC"], dataset.columns["colB"],
               np.arange(100_000))
    assert tree.num_leaves == 64
    assert calls == {"fit_linear": 1071, "quantile": 858}

"""Suite failure details name the face where a check broke."""

from shiftkit import SimplicialComplex, suites


def test_union_eq1_names_the_failing_base(monkeypatch):
    # a one-face window that every shift contains: 1 on the left, 1 + 1 on the right
    monkeypatch.setattr(suites, "interval", lambda A, i, n: [0b1])
    monkeypatch.setattr(suites, "shifted", lambda K, seed, p: SimplicialComplex(K.n, [0, 1]))
    [check] = suites.suite_union_eq1(trials=1, seed=0)
    assert not check.ok
    assert check.detail == "A=() 1!=2"


def test_kernel_dims_names_the_failing_cell(monkeypatch):
    monkeypatch.setattr(suites, "image_dim_complete", lambda h, n, S: -1)
    checks = suites.suite_kernel_dims(trials=0, seed=0)
    assert [(c.label, c.ok, c.detail) for c in checks] == [
        (f"complete-image-h{h}", False, "S=(1,)") for h in range(1, 6)
    ]

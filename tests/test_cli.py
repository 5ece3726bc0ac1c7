"""The batch front-end: exit codes, formats, determinism."""

import json
import os

from catenv.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_thesis_edge_all_certified(capsys):
    code, out, _ = run(capsys, "thesis", fx("edge.cat"))
    assert code == 0
    assert "envelope-coincidence" in out and "rejected" not in out


def test_validate_broken_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "broken.cat"
    bad.write_text("class: graph_path\nobjects: v\ngenerators:\ne v q\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "dangling" in err


def test_validate_planted_cancellation_violation_exits_two(tmp_path, capsys):
    doc = """class: finite_table
objects: u
generators:
c u u
x u u
y u u
z u u
table:
"""
    rows = []
    for a in ("c", "x", "y", "z"):
        for b in ("c", "x", "y", "z"):
            rows.append(f"{a} {b} z")
    bad = tmp_path / "collapse.cat"
    bad.write_text(doc + "\n".join(rows) + "\n")
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 2
    assert "left cancellation" in out


def test_lcm_n2_exits_three_with_evidence(capsys):
    code, out, _ = run(capsys, "lcm", fx("n2.cat"), "--depth", "4")
    assert code == 3
    assert "bounded-evidence" in out


def test_groupoid_command_on_gpd(capsys):
    code, out, _ = run(capsys, "groupoid", fx("pairgpd.gpd"))
    assert code == 0
    assert "word-map" in out


def test_groupoid_command_on_non_associative_gpd(tmp_path, capsys):
    """ℤ/3 on arrows a, b with the row `a a b` replaced by `a a e`."""
    bad = tmp_path / "nonassoc.gpd"
    bad.write_text("class: groupoid\nunits: e\narrows:\na e e\nb e e\n"
                   "products:\na a e\na b e\nb a e\nb b a\n")
    code, out, err = run(capsys, "groupoid", str(bad))
    assert code == 1 and out == ""
    assert err == "error: associativity fails at ('a', 'a', 'b')\n"


def test_coaction_command_on_grad(capsys):
    for name in ("t2.grad", "t3.grad"):
        code, out, _ = run(capsys, "coaction", fx(name))
        assert code == 0
        assert "duality" in out and "envelope-coaction" in out


def test_reports_are_deterministic(tmp_path, capsys):
    docs = []
    for i in range(2):
        out_path = tmp_path / f"r{i}.json"
        code, _, _ = run(capsys, "thesis", fx("two.cat"), "--format", "json",
                         "--out", str(out_path))
        assert code == 0
        docs.append(out_path.read_text())
    assert docs[0] == docs[1]
    doc = json.loads(docs[0])
    assert doc["schema"] == "catenv-report/1"
    assert all(e["status"] in ("certified", "rejected", "bounded-evidence")
               for e in doc["entries"])
    assert all("check" in e for e in doc["entries"])
    texts = []
    for i in range(2):
        out_path = tmp_path / f"t{i}.txt"
        run(capsys, "lcm", fx("n2.cat"), "--depth", "3", "--out", str(out_path))
        texts.append(out_path.read_text())
    assert texts[0] == texts[1]


def test_bad_flags_are_input_errors(capsys):
    assert run(capsys, "thesis", fx("edge.cat"), "--depth", "0")[0] == 1
    assert run(capsys, "thesis", fx("edge.cat"), "--tol", "0.5")[0] == 1


def test_thesis_carries_the_lcm_entries(tmp_path, capsys):
    """On a monoid, thesis reports the lcm chain under an `lcm:` prefix."""
    entries = {}
    for command in ("thesis", "lcm"):
        out_path = tmp_path / f"{command}.json"
        run(capsys, command, fx("free2.cat"), "--depth", "4", "--format", "json",
            "--out", str(out_path))
        entries[command] = json.loads(out_path.read_text())["entries"]
    prefixed = [{**e, "check": e["check"].removeprefix("lcm:")}
                for e in entries["thesis"] if e["check"].startswith("lcm:")]
    assert prefixed and prefixed == entries["lcm"]


def test_free2_thesis_is_bounded(capsys):
    code, out, _ = run(capsys, "thesis", fx("free2.cat"), "--depth", "3")
    assert code == 3


def assert_internal_error(capsys, message, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 4 and out == ""
    assert err.startswith("internal error: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_unstable_closure_exits_four(monkeypatch, capsys):
    import catenv.matrixrep
    monkeypatch.setattr(catenv.matrixrep, "_CLOSURE_ROUNDS", 0)
    assert_internal_error(capsys, "closure did not stabilize", "coaction", fx("t2.grad"))


def test_failed_block_decomposition_exits_four(monkeypatch, capsys):
    import catenv.envelope
    monkeypatch.setattr(catenv.envelope, "matrix_rank", lambda ms: 3)
    assert_internal_error(capsys, "not a full matrix algebra", "coaction", fx("t2.grad"))


def test_failed_block_isomorphism_check_exits_four(monkeypatch, capsys):
    import catenv.envelope
    monkeypatch.setattr(catenv.envelope.FinDimCStar, "norm", lambda self, m: 0.0)
    assert_internal_error(capsys, "do not preserve norms", "coaction", fx("t2.grad"))


def test_generators_outside_the_cover_exit_four(monkeypatch, capsys):
    import catenv.pipeline
    monkeypatch.setattr(catenv.pipeline, "generated_dim", lambda gens: 0)
    assert_internal_error(capsys, "generates dimension 0", "thesis", fx("edge.cat"))


def test_duality_image_outside_the_span_is_rejected(monkeypatch, capsys):
    # with V = I identities (i) and (ii) fail, so Ad(V) does not map the
    # generators onto δ_λ(A)⊗𝕂 and δ̃'s closed-form coefficients do not
    # apply: a rejection, not an error
    import numpy as np

    from catenv.coactions import DoubleCrossedProduct
    init = DoubleCrossedProduct.__init__

    def with_identity_v(self, delta):
        init(self, delta)
        self.v_perm = np.arange(len(self.v_perm))

    monkeypatch.setattr(DoubleCrossedProduct, "__init__", with_identity_v)
    code, out, err = run(capsys, "coaction", fx("t2.grad"), "--format", "json")
    assert code == 2 and err == ""
    status = {e["check"]: e["status"] for e in json.loads(out)["entries"]}
    assert status["duality"] == "rejected"
    assert status["crossed-product"] == "certified"
    detail = {e["check"]: e["detail"] for e in json.loads(out)["entries"]}
    assert detail["duality"] == ("identity_i, identity_ii, span_equality, conjugation_match "
                                 "failed; image dimension 12")


def test_near_dependent_generators_are_one_dimension_in_both_entries(tmp_path, capsys):
    # the two degree-0 generators differ by 1e-5 in one entry: `SpanBasis`
    # counts them once, and so does the duality's image, n² = 4 times the
    # two dimensions of A, where an SVD rank would count three
    grad = tmp_path / "near.grad"
    grad.write_text("class: graded_algebra\ngroup: cyclic 2\nambient: 2\ngenerators:\n"
                    "0 0,0,1;1,1,1\n0 0,0,1;1,1,1.00001\n1 0,1,1\n", encoding="utf-8")
    code, out, err = run(capsys, "coaction", str(grad), "--format", "json")
    assert code == 0 and err == ""
    entries = {e["check"]: e for e in json.loads(out)["entries"]}
    assert entries["duality"]["status"] == entries["crossed-product"]["status"] == "certified"
    assert entries["duality"]["detail"] == \
        "unitary conjugation identities hold; image dimension 8"
    assert entries["crossed-product"]["detail"] == \
        "dimension 4; dual action verified on generators"


def test_a_wrong_dual_action_names_both_failed_checks(monkeypatch, capsys):
    # ρ_g and ρ_{g+1} swapped: neither δ̂_g's formula nor the group law holds
    from catenv.coactions import CrossedProduct
    init = CrossedProduct.__init__

    def with_swapped_rho(self, delta):
        init(self, delta)
        self.rho_perms = self.rho_perms[::-1].copy()

    monkeypatch.setattr(CrossedProduct, "__init__", with_swapped_rho)
    code, out, err = run(capsys, "coaction", fx("t2.grad"), "--format", "json")
    assert code == 2 and err == ""
    entries = {e["check"]: e for e in json.loads(out)["entries"]}
    assert entries["crossed-product"]["status"] == "rejected"
    assert entries["crossed-product"]["detail"] == (
        "dimension 6; dual_action_formula_check and dual_action_group_law_check failed")
    assert entries["duality"]["status"] == "certified"


def test_an_envelope_grading_that_is_not_equivariant_is_rejected(monkeypatch, capsys):
    # the trivial grading of the envelope M₂ is a grading, but it puts κ(E₁₂)
    # in degree 0 where A has it in degree 1
    import catenv.cli
    from catenv.coactions import GradedAlgebra, extend_grading

    def trivial(graded, env_basis, kappa):
        env = extend_grading(graded, env_basis, kappa)
        return GradedAlgebra(env.group, {env.group.identity: env.basis})

    monkeypatch.setattr(catenv.cli, "extend_grading", trivial)
    code, out, err = run(capsys, "coaction", fx("t2.grad"), "--format", "json")
    assert code == 2 and err == ""
    entries = {e["check"]: e for e in json.loads(out)["entries"]}
    assert entries["envelope-coaction"] == {
        "check": "envelope-coaction", "status": "rejected",
        "detail": "equivariance fails: δ_env(κ(a)) ≠ κ(a)⊗λ_g on the graded basis"}


def test_out_under_a_missing_directory_is_an_input_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "coaction", fx("t2.grad"), "--out", str(target))
    assert code == 1 and out == "" and not target.exists()
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert str(target) in err

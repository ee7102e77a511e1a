"""The three benchmark workloads: input generation, the op, and answer checks.

Every op input is drawn from `random.Random(f"{workload}:{seed}:{op}:{attempt}")`,
so a seed fixes the whole input stream.  A run never repeats an input:
a drawn input whose key was already used is drawn again with the next
attempt number.  Checks return a list of error strings (empty when the
answer is right) and do not rely on the engine's own self-checks.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from math import comb
from pathlib import Path

import formalg

HERE = Path(__file__).resolve().parent


class P1Hyper:
    """`cohom hyper <file> --format json` on a basis-permuted p1 preset."""

    name = "p1_hyper"
    cli = True
    trace_window = 2   # ops whose calls and counts are reported

    def __init__(self, workdir: Path, tiny: bool):
        self.window = 3 if tiny else 12
        self.workdir = workdir

    def prepare(self) -> None:
        from cohom.presets import build_p1

        self.base = hyper_to_json(*build_p1(self.window))
        golden = json.loads((HERE / "expected_p1.json").read_text())
        self.expected = golden[str(self.window)]

    def make_input(self, op: int, rng: random.Random):
        text = json.dumps(permute_hyper(self.base, rng))
        path = self.workdir / "p1_input.json"
        path.write_text(text)
        return text, {"path": path}

    def argv(self, inp) -> list[str]:
        return ["hyper", str(inp["path"]), "--format", "json"]

    def check(self, inp, stdout: str) -> list[str]:
        out = json.loads(stdout)
        errors = []
        if out.get("total_dims") != [1, 0, 1]:
            errors.append(f"total dims {out.get('total_dims')} != [1, 0, 1]")
        for field in ("P", "Q", "total_dims", "first_pages", "second_pages", "degeneration"):
            if out.get(field) != self.expected[field]:
                errors.append(f"{field} differs from the unpermuted input")
        return errors


def hyper_to_json(nerve, sheaves, level_maps) -> dict:
    """The `cohom hyper` file format for a complex of sheaves on a cover."""
    faces = sorted(nerve.faces, key=lambda f: (len(f), f))

    def mat(m):
        return [[str(x) for x in row] for row in m.matrix]

    restrict = []
    for f in faces:
        for i in range(len(f) if len(f) > 1 else 0):
            restrict.append({"from": list(f[:i] + f[i + 1:]), "to": list(f),
                             "matrices": [mat(s.restriction(f, i)) for s in sheaves]})
    return {
        "opens": nerve.opens,
        "levels": len(sheaves),
        "faces": [{"idx": list(f), "dims": [s.space(f).dim for s in sheaves]} for f in faces],
        "restrict": restrict,
        "level_maps": [{"idx": list(f), "maps": [mat(m[f]) for m in level_maps]} for f in faces],
    }


def permute_hyper(data: dict, rng: random.Random) -> dict:
    """Reorder the basis of every section space; conjugate every map to match.

    Basis vector j of space (face, level) moves to position perm[j], so a
    map M becomes M' with M'[perm_cod[i]][perm_dom[j]] = M[i][j].  Dims,
    sparsity, page dims and d_r ranks do not depend on the basis order.
    """
    perms = {}
    for face in data["faces"]:
        for level, dim in enumerate(face["dims"]):
            perm = list(range(dim))
            rng.shuffle(perm)
            perms[(tuple(face["idx"]), level)] = perm

    def conj(m, dom, cod):
        pd, pc = perms[dom], perms[cod]
        out = [[None] * len(pd) for _ in pc]
        for i, row in enumerate(m):
            for j, x in enumerate(row):
                out[pc[i]][pd[j]] = x
        return out

    restrict = [{"from": e["from"], "to": e["to"],
                 "matrices": [conj(m, (tuple(e["from"]), q), (tuple(e["to"]), q))
                              for q, m in enumerate(e["matrices"])]}
                for e in data["restrict"]]
    level_maps = [{"idx": e["idx"],
                   "maps": [conj(m, (tuple(e["idx"]), q), (tuple(e["idx"]), q + 1))
                            for q, m in enumerate(e["maps"])]}
                  for e in data["level_maps"]]
    return dict(data, restrict=restrict, level_maps=level_maps)


class SmallBatch:
    """One library call per op on a seeded small instance.

    Covers have at most 4 opens over at most 6 points, so their Cech
    matrices stay within about 20 columns like the tensor grids; the
    generator's default 5 opens over 8 points reaches 50+ columns and
    lets a few covers dominate a run's time.

    Small instances recur often, and drawing again on a repeat would
    exhaust the small ones and make later ops costlier, so a run's mix
    would depend on its length.  Instead every input is unique by
    construction: cover points get random ids, and the spaces of tensor
    and triple grids get a random label tag.  Matrices are as generated.
    """

    name = "small_batch"
    cli = False
    trace_window = 50
    kinds = ("cover", "tensor", "cover", "tensor", "triple")

    def __init__(self, workdir: Path, tiny: bool):
        pass

    def prepare(self) -> None:
        from cohom import cech, complexes, generators, grid, linalg, spectral

        self.cech, self.complexes, self.gen = cech, complexes, generators
        self.grid, self.linalg, self.spectral = grid, linalg, spectral

    def make_input(self, op: int, rng: random.Random):
        kind = self.kinds[op % len(self.kinds)]
        if kind == "cover":
            # random_function_sheaf(max_opens=4, max_points=6) with random point ids
            ids = rng.sample(range(1 << 30), rng.randint(1, 6))
            points = [frozenset(rng.sample(ids, rng.randint(1, len(ids))))
                      for _ in range(rng.randint(1, 4))]
            return tuple(points), {"kind": kind, "sheaf": self.cech.function_sheaf(points)}
        tag = rng.getrandbits(30)
        if kind == "tensor":
            _, a, b, ha, hb = self.gen.random_tensor_double_complex(rng, max_bound=4, cell_cap=3)
            a, b = self._tagged_complex(a, tag), self._tagged_complex(b, tag)
            return hash((a, b)), {"kind": kind, "dc": self.grid.tensor_double_complex(a, b),
                                  "ha": ha, "hb": hb}
        n = self._tagged_triple(self.gen.random_tensor_triple_complex(rng), tag)
        return hash(tuple(tuple(sorted(m.items())) for m in (n.d1, n.d2, n.d3))), \
            {"kind": kind, "triple": n}

    def _tag(self, space, tag):
        return self.linalg.LabeledSpace(tuple((tag, lab) for lab in space.labels))

    def _tagged_complex(self, cx, tag):
        spaces = tuple(self._tag(s, tag) for s in cx.spaces)
        diffs = tuple(self.linalg.LinearMap(spaces[i], spaces[i + 1], d.matrix)
                      for i, d in enumerate(cx.diffs))
        return self.complexes.CochainComplex(cx.lo, cx.hi, spaces, diffs)

    def _tagged_triple(self, n, tag):
        cells = tuple(tuple(tuple(self._tag(c, tag) for c in row) for row in plane)
                      for plane in n.cells)

        def maps(d, step):
            return {(p, q, r): self.linalg.LinearMap(
                        cells[p][q][r], cells[p + step[0]][q + step[1]][r + step[2]], m.matrix)
                    for (p, q, r), m in d.items()}

        return self.grid.TripleComplex(n.P, n.Q, n.R, cells, maps(n.d1, (1, 0, 0)),
                                       maps(n.d2, (0, 1, 0)), maps(n.d3, (0, 0, 1)))

    def call(self, inp):
        kind = inp["kind"]
        if kind == "cover":
            sheaf = inp["sheaf"]
            return self.cech.cech_cohomology(sheaf.nerve, sheaf)
        if kind == "tensor":
            dc = inp["dc"]
            return (self.complexes.cohomology(self.grid.total(dc)),
                    self.spectral.certify_convergence(dc))
        return self.grid.totals_agree(inp["triple"])

    def check(self, inp, result) -> list[str]:
        kind = inp["kind"]
        if kind == "cover":
            # each point's carriers span a full simplex, so every point
            # contributes one class in degree 0 and nothing above it
            sheaf = inp["sheaf"]
            points = set()
            for a in range(sheaf.nerve.opens):
                points.update(sheaf.space((a,)).labels)
            want = (len(points),) + (0,) * (len(result.dims) - 1)
            return [] if tuple(result.dims) == want else [f"cover dims {result.dims} != {want}"]
        if kind == "tensor":
            report, cert = result
            ha, hb = inp["ha"], inp["hb"]
            want = tuple(sum(ha[p] * hb[n - p] for p in range(len(ha)) if 0 <= n - p < len(hb))
                         for n in range(len(ha) + len(hb) - 1))
            errors = []
            if tuple(report.dims) != want:
                errors.append(f"tensor dims {report.dims} != Kunneth {want}")
            for einf in (cert.first_einf, cert.second_einf):
                sums = tuple(sum(d for _, d in einf[n]) for n in range(len(want)))
                if sums != want:
                    errors.append(f"E_inf sums {sums} != Kunneth {want}")
            return errors
        return [] if result.agree else ["triple totals disagree"]


class DerhamForms:
    """`cohom derham --reduce <phi>` on a seeded closed form phi = d alpha + sum c_I w_I."""

    name = "derham_forms"
    cli = True
    trace_window = 3

    def __init__(self, workdir: Path, tiny: bool):
        self.n, self.window = (2, 2) if tiny else (4, 3)

    def prepare(self) -> None:
        from cohom import forms

        self.forms = forms

    def make_input(self, op: int, rng: random.Random):
        n = self.n
        q = rng.randint(1, n)
        alpha: dict = {}
        subsets = list(itertools.combinations(range(1, n + 1), q - 1))
        for _ in range(rng.randint(2, 5)):
            key = (tuple(rng.randint(-3, 3) for _ in range(n)), rng.choice(subsets))
            alpha[key] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))
        phi = formalg.d(formalg.clean(alpha))
        coeffs = {}
        for I in itertools.combinations(range(1, n + 1), q):
            c = Fraction(rng.choice([-2, -1, 0, 0, 1, 2, 3]), rng.choice([1, 2]))
            if c:
                coeffs[I] = c
                phi = formalg.add(phi, formalg.log_form(n, I, c))
        if not phi:
            coeffs[tuple(range(1, q + 1))] = Fraction(1)
            phi = formalg.log_form(n, tuple(range(1, q + 1)))
        key = tuple(sorted(phi.items()))
        return key, {"q": q, "phi": phi, "coeffs": coeffs, "text": formalg.to_input_text(phi),
                     "axis": rng.randint(1, n)}

    def argv(self, inp) -> list[str]:
        n = str(self.n)
        return ["derham", "--n", n, "--invert", n, "--window", str(self.window),
                "--reduce", inp["text"], "--format", "json"]

    def check(self, inp, stdout: str) -> list[str]:
        out = json.loads(stdout)
        n = self.n
        errors = []
        if out.get("dims") != [comb(n, q) for q in range(n + 1)]:
            errors.append(f"dims {out.get('dims')} != binomials C({n}, q)")
        got = {tuple(e["I"]): Fraction(e["c"]) for e in out["reduce"]["log_coefficients"]}
        if got != inp["coeffs"]:
            errors.append(f"log coefficients {got} != seeded {inp['coeffs']}")
        xi = formalg.parse_report_text(out["reduce"]["witness"], n)
        rest = inp["phi"]
        for I, c in inp["coeffs"].items():
            rest = formalg.add(rest, formalg.log_form(n, I, c), scale=-1)
        if formalg.add(rest, formalg.d(xi), scale=-1):
            errors.append("phi - sum c_I w_I != d(witness)")
        return errors

    def pole_reduce(self, inp):
        """The traced run's extra in-process step: reduce phi along a seeded axis."""
        n = self.n
        phi = self.forms.AlgebraicForm.build(n, inp["q"], inp["phi"])
        spec = self.forms.TorusSpec(n, n, self.window)
        return self.forms.pole_reduce(phi, spec, inp["axis"])

    def check_pole_reduce(self, inp, result) -> list[str]:
        axis = inp["axis"]
        w0, a1, theta = ({(e, dI): c for e, dI, c in f.terms} for f in result)
        errors = []
        if any(e[axis - 1] < 0 for e, _ in w0):
            errors.append("w0 has a pole along the axis")
        if any(e[axis - 1] != 0 or axis in dI for e, dI in a1):
            errors.append("a1 involves z_axis or dz_axis")
        whole = formalg.add(formalg.add(w0, formalg.dlog_wedge(axis, a1)), formalg.d(theta))
        if formalg.add(inp["phi"], whole, scale=-1):
            errors.append("phi != w0 + dlog z_axis ^ a1 + d(theta)")
        return errors


WORKLOADS = {w.name: w for w in (P1Hyper, SmallBatch, DerhamForms)}

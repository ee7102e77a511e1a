"""Finite covers, sheaf data on covers, and Cech (hyper)cohomology.

A cover is its nerve: the downward-closed family of strictly increasing
index tuples whose intersections are nonempty.  Sheaf data assigns a
space to every face and a map to every single-index drop; the Cech
differential is the alternating sum of restricted components,

    (delta w)_{a0..a_{p+1}} = sum_i (-1)^i w_{a0..^ai..a_{p+1}},

which squares to zero whenever the restriction squares commute.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .complexes import CochainComplex, CohomologyReport, cohomology, validate
from .grid import DoubleComplex, total
from .linalg import (
    CohomError,
    LabeledSpace,
    LinearMap,
    matrix_from_json_shaped,
    matrix_to_json,
)
from .spectral import ConvergenceCertificate, _analyse

ZERO = Fraction(0)


class MissingFaceSpace(CohomError):
    pass


class IncompatibleRestrictions(CohomError):
    pass


class LevelMapMismatch(CohomError):
    pass


@dataclass(frozen=True)
class CoverNerve:
    """Nerve of a finite cover: opens 0..N-1 and nonempty-intersection faces."""

    opens: int
    faces: frozenset  # of strictly increasing tuples of ints

    def __post_init__(self):
        for f in self.faces:
            if not f or any(not 0 <= a < self.opens for a in f):
                raise ValueError(f"face {f} out of range")
            if any(f[i] >= f[i + 1] for i in range(len(f) - 1)):
                raise ValueError(f"face {f} is not strictly increasing")
        for a in range(self.opens):
            if (a,) not in self.faces:
                raise ValueError(f"singleton face ({a},) missing")
        for f in self.faces:
            if len(f) > 1:
                for i in range(len(f)):
                    if f[:i] + f[i + 1:] not in self.faces:
                        raise ValueError(f"nerve is not downward closed at {f}")

    @property
    def max_dim(self) -> int:
        return max(len(f) for f in self.faces) - 1

    def faces_of_dim(self, p: int) -> list[tuple]:
        return sorted(f for f in self.faces if len(f) == p + 1)


@dataclass(frozen=True)
class SheafOnCover:
    """Section spaces over the nerve faces plus single-drop restriction maps.

    restrictions[(face, i)] maps F(face with position i removed) into
    F(face); composite restrictions are path-independent once the
    codimension-2 squares commute (checked by validate()).
    """

    nerve: CoverNerve
    spaces: dict        # face -> LabeledSpace
    restrictions: dict  # (face, position) -> LinearMap

    def space(self, face: tuple) -> LabeledSpace:
        try:
            return self.spaces[face]
        except KeyError:
            raise MissingFaceSpace(f"no section space for face {face}")

    def restriction(self, face: tuple, i: int) -> LinearMap:
        try:
            return self.restrictions[(face, i)]
        except KeyError:
            raise MissingFaceSpace(f"no restriction into {face} dropping position {i}")

    def validate(self) -> None:
        for f in self.nerve.faces:
            self.space(f)
        for f in self.nerve.faces:
            if len(f) < 2:
                continue
            for i in range(len(f)):
                m = self.restriction(f, i)
                sub = f[:i] + f[i + 1:]
                if m.domain != self.space(sub) or m.codomain != self.space(f):
                    raise IncompatibleRestrictions(
                        f"restriction into {f} dropping {f[i]} has wrong spaces")
        # codimension-2 commutation: both drop orders agree
        for f in self.nerve.faces:
            if len(f) < 3:
                continue
            for i, j in itertools.combinations(range(len(f)), 2):
                f_i = f[:i] + f[i + 1:]
                f_j = f[:j] + f[j + 1:]
                via_i = self.restriction(f, i).compose(self.restriction(f_i, j - 1))
                via_j = self.restriction(f, j).compose(self.restriction(f_j, i))
                if via_i.matrix != via_j.matrix:
                    raise IncompatibleRestrictions(
                        f"restriction squares into {f} (drops {f[i]}, {f[j]}) do not commute")


@dataclass(frozen=True)
class CechCochain:
    """Components on the p-faces of a nerve; missing faces mean zero."""

    p: int
    components: dict  # face -> tuple of Fractions

    def to_vector(self, nerve: CoverNerve, sheaf: SheafOnCover) -> tuple:
        faces = nerve.faces_of_dim(self.p)
        unknown = set(self.components) - set(faces)
        if unknown:
            raise ValueError(f"components on non-faces: {sorted(unknown)}")
        out = []
        for face in faces:
            d = sheaf.space(face).dim
            comp = self.components.get(face)
            if comp is None:
                out.extend([ZERO] * d)
            else:
                if len(comp) != d:
                    raise ValueError(f"component on {face} has wrong length")
                out.extend(Fraction(x) for x in comp)
        return tuple(out)


def cech_space(nerve: CoverNerve, sheaf: SheafOnCover, p: int) -> LabeledSpace:
    labels = tuple((face, lab)
                   for face in nerve.faces_of_dim(p)
                   for lab in sheaf.space(face).labels)
    return LabeledSpace(labels)


def cech_complex(nerve: CoverNerve, sheaf: SheafOnCover) -> CochainComplex:
    """The Cech complex with the alternating-sum coboundary."""
    if sheaf.nerve != nerve:
        raise ValueError("sheaf data belongs to a different nerve")
    sheaf.validate()
    top = nerve.max_dim
    spaces = tuple(cech_space(nerve, sheaf, p) for p in range(top + 1))
    diffs = []
    for p in range(top):
        src_faces = nerve.faces_of_dim(p)
        dst_faces = nerve.faces_of_dim(p + 1)
        src_index = {f: i for i, f in enumerate(src_faces)}
        blocks = {}
        for gi, g in enumerate(dst_faces):
            for i in range(len(g)):
                sub = g[:i] + g[i + 1:]
                m = sheaf.restriction(g, i)
                if i % 2 == 1:
                    m = m.scale(-1)
                blocks[(gi, src_index[sub])] = m
        diffs.append(LinearMap.from_blocks(spaces[p], spaces[p + 1],
                                           [sheaf.space(f).dim for f in src_faces],
                                           [sheaf.space(f).dim for f in dst_faces], blocks))
    cx = CochainComplex(0, top, spaces, tuple(diffs))
    validate(cx)
    return cx


def cech_cohomology(nerve: CoverNerve, sheaf: SheafOnCover) -> CohomologyReport:
    return cohomology(cech_complex(nerve, sheaf))


def function_sheaf(points: Sequence) -> SheafOnCover:
    """Sheaf of rational-valued functions on finite point sets.

    points[i] is the set of points of open i; sections over a face are
    functions on the intersection, restrictions forget coordinates.  The
    nerve is derived: a face is present iff its intersection is nonempty.
    """
    sets = [frozenset(s) for s in points]
    n = len(sets)
    if any(not s for s in sets):
        raise ValueError("every open must contain at least one point")
    inter: dict = {}
    for size in range(1, n + 1):
        added = False
        for face in itertools.combinations(range(n), size):
            if size == 1:
                val = sets[face[0]]
            else:
                prev = inter.get(face[:-1])
                if prev is None:
                    continue
                val = prev & sets[face[-1]]
            if val:
                inter[face] = val
                added = True
        if not added:
            break
    nerve = CoverNerve(n, frozenset(inter))
    spaces = {f: LabeledSpace(tuple(sorted(pts))) for f, pts in inter.items()}
    restrictions = {}
    for f in inter:
        if len(f) < 2:
            continue
        for i in range(len(f)):
            sub = f[:i] + f[i + 1:]
            rows = []
            for pt in spaces[f].labels:
                rows.append(tuple(Fraction(1) if pt == src else ZERO
                                  for src in spaces[sub].labels))
            restrictions[(f, i)] = LinearMap(spaces[sub], spaces[f], tuple(rows))
    return SheafOnCover(nerve, spaces, restrictions)


@dataclass(frozen=True)
class HyperResult:
    double: DoubleComplex
    total: CochainComplex
    report: CohomologyReport
    first: list
    second: list
    certificate: ConvergenceCertificate


def cech_sheaf_double_complex(nerve: CoverNerve, sheaves: Sequence[SheafOnCover],
                              level_maps: Sequence[dict]) -> DoubleComplex:
    """K^{p,q} = Cech^p of level q; horizontal delta, vertical level maps.

    level_maps[q][face] maps F_q(face) -> F_{q+1}(face).
    """
    levels = len(sheaves)
    if len(level_maps) != max(levels - 1, 0):
        raise LevelMapMismatch("need one family of level maps per adjacent level pair")
    for sheaf in sheaves:
        if sheaf.nerve != nerve:
            raise ValueError("all levels must share one nerve")
        sheaf.validate()
    # level maps: shapes, commutation with restrictions, and composition zero
    for q, maps in enumerate(level_maps):
        for face in nerve.faces:
            m = maps.get(face)
            if m is None or m.domain != sheaves[q].space(face) \
                    or m.codomain != sheaves[q + 1].space(face):
                raise LevelMapMismatch(f"level map {q} missing or mis-shaped on face {face}")
        for face in nerve.faces:
            if len(face) < 2:
                continue
            for i in range(len(face)):
                sub = face[:i] + face[i + 1:]
                a = maps[face].compose(sheaves[q].restriction(face, i))
                b = sheaves[q + 1].restriction(face, i).compose(maps[sub])
                if a.matrix != b.matrix:
                    raise LevelMapMismatch(
                        f"level map {q} does not commute with restriction into {face}")
    for q in range(levels - 2):
        for face in nerve.faces:
            comp = level_maps[q + 1][face].compose(level_maps[q][face])
            if not comp.is_zero():
                raise LevelMapMismatch(f"level maps {q}, {q + 1} do not compose to zero on {face}")

    P = nerve.max_dim
    Q = levels - 1
    cech_complexes = [cech_complex(nerve, s) for s in sheaves]
    cells = tuple(tuple(cech_complexes[q].space(p) for q in range(Q + 1))
                  for p in range(P + 1))
    horiz = tuple(tuple(LinearMap(cells[p][q], cells[p + 1][q],
                                  cech_complexes[q].diff(p).matrix)
                        for q in range(Q + 1)) for p in range(P))
    vert = []
    for p in range(P + 1):
        col = []
        for q in range(Q):
            faces = nerve.faces_of_dim(p)
            blocks = {(i, i): level_maps[q][f] for i, f in enumerate(faces)}
            col.append(LinearMap.from_blocks(cells[p][q], cells[p][q + 1],
                                             [sheaves[q].space(f).dim for f in faces],
                                             [sheaves[q + 1].space(f).dim for f in faces],
                                             blocks))
        vert.append(tuple(col))
    dc = DoubleComplex(P, Q, cells, horiz, tuple(vert))
    dc.validate()
    return dc


def cech_hyper(nerve: CoverNerve, sheaves: Sequence[SheafOnCover],
               level_maps: Sequence[dict]) -> HyperResult:
    """Cech hypercohomology of a complex of sheaves on a cover.

    Returns the total cohomology of the Cech-sheaf double complex along
    with both spectral sequences run out to the stable page and their
    convergence certificate, all from one total complex.
    """
    dc = cech_sheaf_double_complex(nerve, sheaves, level_maps)
    tot = total(dc)
    report = cohomology(tot)
    first, second, cert = _analyse(dc, tot, report.dims)
    return HyperResult(dc, tot, report, first, second, cert)


# ---------------------------------------------------------------------------
# JSON schemas


def cover_to_json(nerve: CoverNerve, sheaf: SheafOnCover) -> dict:
    faces = [{"idx": list(f), "dim": sheaf.space(f).dim}
             for f in sorted(nerve.faces, key=lambda f: (len(f), f))]
    restrict = []
    for f in sorted(nerve.faces, key=lambda f: (len(f), f)):
        if len(f) < 2:
            continue
        for i in range(len(f)):
            restrict.append({
                "from": list(f[:i] + f[i + 1:]),
                "to": list(f),
                "matrix": matrix_to_json(sheaf.restriction(f, i).matrix),
            })
    return {"opens": nerve.opens, "faces": faces, "restrict": restrict}


def cover_from_json(data: dict) -> tuple[CoverNerve, SheafOnCover]:
    opens = int(data["opens"])
    face_dims = {}
    for entry in data["faces"]:
        face = tuple(int(i) for i in entry["idx"])
        face_dims[face] = int(entry["dim"])
    nerve = CoverNerve(opens, frozenset(face_dims))
    spaces = {f: LabeledSpace(tuple((f, i) for i in range(d)))
              for f, d in face_dims.items()}
    restrictions = {}
    for entry in data.get("restrict", []):
        src = tuple(int(i) for i in entry["from"])
        dst = tuple(int(i) for i in entry["to"])
        drops = [i for i in range(len(dst)) if dst[:i] + dst[i + 1:] == src]
        if len(drops) != 1:
            raise ValueError(f"restriction {src} -> {dst} is not a single index drop")
        mat = matrix_from_json_shaped(entry["matrix"], spaces[dst].dim, spaces[src].dim)
        restrictions[(dst, drops[0])] = LinearMap(spaces[src], spaces[dst], mat)
    return nerve, SheafOnCover(nerve, spaces, restrictions)


def hyper_from_json(data: dict):
    opens = int(data["opens"])
    levels = int(data["levels"])
    face_dims = {}
    for entry in data["faces"]:
        face = tuple(int(i) for i in entry["idx"])
        dims = [int(d) for d in entry["dims"]]
        if len(dims) != levels:
            raise ValueError(f"face {face} needs one dim per level")
        face_dims[face] = dims
    nerve = CoverNerve(opens, frozenset(face_dims))
    level_spaces = []
    for q in range(levels):
        level_spaces.append({f: LabeledSpace(tuple((q, f, i) for i in range(d[q])))
                             for f, d in face_dims.items()})
    restrictions: list[dict] = [{} for _ in range(levels)]
    for entry in data.get("restrict", []):
        src = tuple(int(i) for i in entry["from"])
        dst = tuple(int(i) for i in entry["to"])
        drops = [i for i in range(len(dst)) if dst[:i] + dst[i + 1:] == src]
        if len(drops) != 1:
            raise ValueError(f"restriction {src} -> {dst} is not a single index drop")
        mats = entry["matrices"]
        if len(mats) != levels:
            raise ValueError("need one restriction matrix per level")
        for q in range(levels):
            restrictions[q][(dst, drops[0])] = LinearMap(
                level_spaces[q][src], level_spaces[q][dst],
                matrix_from_json_shaped(mats[q], level_spaces[q][dst].dim,
                                        level_spaces[q][src].dim))
    sheaves = [SheafOnCover(nerve, level_spaces[q], restrictions[q]) for q in range(levels)]
    level_maps: list[dict] = [{} for _ in range(max(levels - 1, 0))]
    for entry in data.get("level_maps", []):
        face = tuple(int(i) for i in entry["idx"])
        mats = entry["maps"]
        if len(mats) != levels - 1:
            raise ValueError("need one level map per adjacent level pair")
        for q in range(levels - 1):
            level_maps[q][face] = LinearMap(
                level_spaces[q][face], level_spaces[q + 1][face],
                matrix_from_json_shaped(mats[q], level_spaces[q + 1][face].dim,
                                        level_spaces[q][face].dim))
    return nerve, sheaves, level_maps

"""Finite covers, sheaf data on covers, and Cech (hyper)cohomology.

A cover is its nerve: the downward-closed family of strictly increasing
index tuples whose intersections are nonempty.  Sheaf data assigns a
space to every face and a map to every single-index drop; the Cech
differential is the alternating sum of restricted components,

    (delta w)_{a0..a_{p+1}} = sum_i (-1)^i w_{a0..^ai..a_{p+1}},

which squares to zero whenever the restriction squares commute.  Sheaf
data checks those squares (`SheafOnCover.validate`) when it is built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .complexes import CochainComplex, CohomologyReport, cohomology, cohomology_dims
from .grid import DoubleComplex, total
from .linalg import (
    CohomError,
    LabeledSpace,
    LinearMap,
    ONE,
    check_declared_dim,
    int_from_json,
    matrix_from_json_shaped,
    matrix_to_json,
)
from .spectral import ConvergenceCertificate, _analyse


class MissingFaceSpace(CohomError):
    pass


class IncompatibleRestrictions(CohomError):
    pass


class LevelMapMismatch(CohomError):
    pass


# Most faces one JSON cover may declare.  Faces of dimension 0 add no basis
# vectors, but the nerve checks grow faster than the face count.  Measured
# with Python 3.11 on a 2-vCPU container, `cohom cech` on the full nerve of
# 10, 12 and 14 opens (1,023, 4,095 and 16,383 faces) takes 0.42, 2.0 and 9.7 s.
MAX_DECLARED_FACES = 1024


@dataclass(frozen=True)
class CoverNerve:
    """Nerve of a finite cover: opens 0..N-1 and nonempty-intersection faces."""

    opens: int
    faces: frozenset  # of strictly increasing tuples of ints

    def __post_init__(self):
        if not self.faces:
            raise ValueError("faces must hold at least one face")
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
    codimension-2 squares commute (checked by validate() on construction).
    """

    nerve: CoverNerve
    spaces: dict        # face -> LabeledSpace
    restrictions: dict  # (face, position) -> LinearMap

    def __post_init__(self):
        self.validate()

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
                if via_i != via_j:
                    raise IncompatibleRestrictions(
                        f"restriction squares into {f} (drops {f[i]}, {f[j]}) do not commute")


def cech_complex(nerve: CoverNerve, sheaf: SheafOnCover) -> CochainComplex:
    """The Cech complex with the alternating-sum coboundary."""
    spaces, diffs = _cech_cochains(nerve, sheaf)
    return CochainComplex(0, nerve.max_dim, spaces, diffs)


def _cech_cochains(nerve: CoverNerve, sheaf: SheafOnCover) -> tuple:
    """(spaces, coboundaries) of the Cech complex, with delta.delta = 0 left
    to whichever complex or grid is built from them."""
    if sheaf.nerve != nerve:
        raise ValueError("sheaf data belongs to a different nerve")
    top = nerve.max_dim
    spaces = tuple(LabeledSpace(tuple((face, lab) for face in nerve.faces_of_dim(p)
                                      for lab in sheaf.space(face).labels))
                   for p in range(top + 1))
    diffs = []
    for p in range(top):
        src_faces = nerve.faces_of_dim(p)
        dst_faces = nerve.faces_of_dim(p + 1)
        src_index = {f: i for i, f in enumerate(src_faces)}
        blocks = {}
        for gi, g in enumerate(dst_faces):
            for i in range(len(g)):
                sub = g[:i] + g[i + 1:]
                blocks[(gi, src_index[sub])] = (-1 if i % 2 else 1, sheaf.restriction(g, i))
        diffs.append(LinearMap.from_blocks(spaces[p], spaces[p + 1],
                                           [sheaf.space(f).dim for f in src_faces],
                                           [sheaf.space(f).dim for f in dst_faces], blocks))
    return spaces, tuple(diffs)


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
            index = {pt: j for j, pt in enumerate(spaces[sub].labels)}
            rows = [((index[pt], ONE),) for pt in spaces[f].labels]
            restrictions[(f, i)] = LinearMap.sparse(spaces[sub], spaces[f], rows)
    return SheafOnCover(nerve, spaces, restrictions)


@dataclass(frozen=True)
class HyperResult:
    double: DoubleComplex
    total: CochainComplex
    dims: tuple  # dim H^n of the total complex, n = 0..P+Q
    first: list
    second: list
    certificate: ConvergenceCertificate


def cech_sheaf_double_complex(nerve: CoverNerve, sheaves: Sequence[SheafOnCover],
                              level_maps: Sequence[dict]) -> DoubleComplex:
    """K^{p,q} = Cech^p of level q; horizontal delta, vertical level maps.

    level_maps[q][face] maps F_q(face) -> F_{q+1}(face).  The vertical maps
    are block-diagonal in the level maps and each (face, dropped index) pair
    is its own block of delta, so the grid's laws say exactly that level
    maps commute with restrictions and compose to zero.
    """
    levels = len(sheaves)
    if len(level_maps) != max(levels - 1, 0):
        raise LevelMapMismatch("need one family of level maps per adjacent level pair")
    cochains = [_cech_cochains(nerve, s) for s in sheaves]
    for q, maps in enumerate(level_maps):
        for face in nerve.faces:
            m = maps.get(face)
            if m is None or m.domain != sheaves[q].space(face) \
                    or m.codomain != sheaves[q + 1].space(face):
                raise LevelMapMismatch(f"level map {q} missing or mis-shaped on face {face}")
    P = nerve.max_dim
    Q = levels - 1
    cells = tuple(tuple(cochains[q][0][p] for q in range(Q + 1)) for p in range(P + 1))
    horiz = tuple(tuple(cochains[q][1][p] for q in range(Q + 1)) for p in range(P))

    def vert(p, q):
        faces = nerve.faces_of_dim(p)
        return LinearMap.from_blocks(cells[p][q], cells[p][q + 1],
                                     [sheaves[q].space(f).dim for f in faces],
                                     [sheaves[q + 1].space(f).dim for f in faces],
                                     {(i, i): (1, level_maps[q][f]) for i, f in enumerate(faces)})

    return DoubleComplex(P, Q, cells, horiz,
                         tuple(tuple(vert(p, q) for q in range(Q)) for p in range(P + 1)))


def cech_hyper(nerve: CoverNerve, sheaves: Sequence[SheafOnCover],
               level_maps: Sequence[dict]) -> HyperResult:
    """Cech hypercohomology of a complex of sheaves on a cover.

    Returns the total cohomology dims of the Cech-sheaf double complex
    (by rank alone) along with both spectral sequences run out to the
    stable page and their convergence certificate, all from one total
    complex.
    """
    dc = cech_sheaf_double_complex(nerve, sheaves, level_maps)
    tot = total(dc)
    dims = cohomology_dims(tot)
    first, second, cert = _analyse(dc, tot, dims)
    return HyperResult(dc, tot, dims, first, second, cert)


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


def face_from_json(x, field: str) -> tuple:
    """A face: a list of non-negative JSON integers, strictly increasing."""
    if not isinstance(x, list):
        raise ValueError(f"{field} must be a list of integers, got {x!r}")
    face = tuple(int_from_json(a, f"{field}[{i}]") for i, a in enumerate(x))
    if any(a >= b for a, b in zip(face, face[1:])):
        raise ValueError(f"{field} must be strictly increasing, got {x!r}")
    return face


def _declared_face(x, field: str, faces) -> tuple:
    face = face_from_json(x, field)
    if face not in faces:
        raise ValueError(f"{field}: face {face} is not declared")
    return face


def _declared_faces(data: dict) -> list:
    """The `faces` entries, refused past MAX_DECLARED_FACES before any is read."""
    if len(data["faces"]) > MAX_DECLARED_FACES:
        raise ValueError(f"faces: {len(data['faces'])} declared, over the limit of "
                         f"{MAX_DECLARED_FACES}")
    return data["faces"]


def _once(key, seen: set, field: str):
    """key, recorded in seen; refused if an earlier entry declared it."""
    if key in seen:
        raise ValueError(f"{field}: {key} is declared twice")
    seen.add(key)
    return key


def _restriction_drop(entry: dict, n: int, faces, seen: set) -> tuple:
    """(source face, target face, dropped position) of restrict[n], each pair declared once."""
    src = _declared_face(entry["from"], f"restrict[{n}].from", faces)
    dst = _declared_face(entry["to"], f"restrict[{n}].to", faces)
    drops = [i for i in range(len(dst)) if dst[:i] + dst[i + 1:] == src]
    if len(drops) != 1:
        raise ValueError(f"restriction {src} -> {dst} is not a single index drop")
    _once((src, dst), seen, f"restrict[{n}]")
    return src, dst, drops[0]


def cover_from_json(data: dict) -> tuple[CoverNerve, SheafOnCover]:
    opens = int_from_json(data["opens"], "opens")
    face_dims, seen = {}, set()
    for n, entry in enumerate(_declared_faces(data)):
        face = _once(face_from_json(entry["idx"], f"faces[{n}].idx"), seen, f"faces[{n}].idx")
        face_dims[face] = int_from_json(entry["dim"], f"faces[{n}].dim")
    check_declared_dim(sum(face_dims.values()))
    nerve = CoverNerve(opens, frozenset(face_dims))
    spaces = {f: LabeledSpace(tuple((f, i) for i in range(d)))
              for f, d in face_dims.items()}
    restrictions, seen = {}, set()
    for n, entry in enumerate(data.get("restrict", [])):
        src, dst, drop = _restriction_drop(entry, n, face_dims, seen)
        mat = matrix_from_json_shaped(entry["matrix"], spaces[dst].dim, spaces[src].dim,
                                      f"restrict[{n}].matrix")
        restrictions[(dst, drop)] = LinearMap(spaces[src], spaces[dst], mat)
    return nerve, SheafOnCover(nerve, spaces, restrictions)


def hyper_from_json(data: dict):
    opens = int_from_json(data["opens"], "opens")
    levels = int_from_json(data["levels"], "levels")
    face_dims, seen = {}, set()
    for n, entry in enumerate(_declared_faces(data)):
        face = _once(face_from_json(entry["idx"], f"faces[{n}].idx"), seen, f"faces[{n}].idx")
        dims = [int_from_json(d, f"faces[{n}].dims[{q}]") for q, d in enumerate(entry["dims"])]
        if len(dims) != levels:
            raise ValueError(f"face {face} needs one dim per level")
        face_dims[face] = dims
    check_declared_dim(sum(map(sum, face_dims.values())))
    nerve = CoverNerve(opens, frozenset(face_dims))
    level_spaces = []
    for q in range(levels):
        level_spaces.append({f: LabeledSpace(tuple((q, f, i) for i in range(d[q])))
                             for f, d in face_dims.items()})
    restrictions, seen = [{} for _ in range(levels)], set()
    for n, entry in enumerate(data.get("restrict", [])):
        src, dst, drop = _restriction_drop(entry, n, face_dims, seen)
        mats = entry["matrices"]
        if len(mats) != levels:
            raise ValueError("need one restriction matrix per level")
        for q in range(levels):
            restrictions[q][(dst, drop)] = LinearMap(
                level_spaces[q][src], level_spaces[q][dst],
                matrix_from_json_shaped(mats[q], level_spaces[q][dst].dim,
                                        level_spaces[q][src].dim,
                                        f"restrict[{n}].matrices[{q}]"))
    sheaves = [SheafOnCover(nerve, level_spaces[q], restrictions[q]) for q in range(levels)]
    level_maps, seen = [{} for _ in range(max(levels - 1, 0))], set()
    for n, entry in enumerate(data.get("level_maps", [])):
        field = f"level_maps[{n}].idx"
        face = _once(_declared_face(entry["idx"], field, face_dims), seen, field)
        mats = entry["maps"]
        if len(mats) != levels - 1:
            raise ValueError("need one level map per adjacent level pair")
        for q in range(levels - 1):
            level_maps[q][face] = LinearMap(
                level_spaces[q][face], level_spaces[q + 1][face],
                matrix_from_json_shaped(mats[q], level_spaces[q + 1][face].dim,
                                        level_spaces[q][face].dim,
                                        f"level_maps[{n}].maps[{q}]"))
    return nerve, sheaves, level_maps

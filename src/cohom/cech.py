"""Finite covers, sheaf data on covers, and Cech (hyper)cohomology.

A cover is its nerve: the downward-closed family of strictly increasing
index tuples whose intersections are nonempty.  Sheaf data assigns a
space to every face and a map to every single-index drop: restriction
(face, i) maps F(face minus position i) into F(face), and `_drops` is
the one place that lists those drops.  The Cech differential is the
alternating sum of restricted components,

    (delta w)_{a0..a_{p+1}} = sum_i (-1)^i w_{a0..^ai..a_{p+1}},

which squares to zero whenever the restriction squares commute.  Sheaf
data checks those squares (`SheafOnCover.validate`) when it is built.
The JSON cover readers take one restriction per drop of every face and
refuse an incomplete cover as malformed input.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Sequence

from .complexes import CochainComplex, CohomologyReport, cohomology, cohomology_dims
from .exact import ONE, CohomError, Record
from .linalg import (LabeledSpace, LinearMap, check_declared_dim, int_from_json, map_from_json,
                     matrix_to_json, products_agree)

if TYPE_CHECKING:
    from .grid import DoubleComplex
    from .spectral import ConvergenceCertificate


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


def _drops(face: tuple) -> list:
    """[(i, face minus position i)] for a face of two or more indices, else []."""
    return [(i, face[:i] + face[i + 1:]) for i in range(len(face))] if len(face) > 1 else []


class CoverNerve(Record):
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
            if any(sub not in self.faces for _, sub in _drops(f)):
                raise ValueError(f"nerve is not downward closed at {f}")

    @property
    def max_dim(self) -> int:
        return max(len(f) for f in self.faces) - 1

    def faces_of_dim(self, p: int) -> list[tuple]:
        return sorted(f for f in self.faces if len(f) == p + 1)


class SheafOnCover(Record):
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
            for i, sub in _drops(f):
                m = self.restriction(f, i)
                if m.domain != self.space(sub) or m.codomain != self.space(f):
                    raise IncompatibleRestrictions(
                        f"restriction into {f} dropping {f[i]} has wrong spaces")
        # codimension-2 commutation: both drop orders agree
        for f in self.nerve.faces:
            if len(f) < 3:
                continue
            for (i, f_i), (j, f_j) in itertools.combinations(_drops(f), 2):
                if not products_agree(self.restriction(f, i), self.restriction(f_i, j - 1),
                                      self.restriction(f, j), self.restriction(f_j, i)):
                    raise IncompatibleRestrictions(
                        f"restriction squares into {f} (drops {f[i]}, {f[j]}) do not commute")


def cech_complex(nerve: CoverNerve, sheaf: SheafOnCover) -> CochainComplex:
    """The Cech complex with the alternating-sum coboundary."""
    _, spaces, _, diffs = _cech_cochains(nerve, sheaf)
    return CochainComplex(0, nerve.max_dim, spaces, diffs)


def _cech_cochains(nerve: CoverNerve, sheaf: SheafOnCover) -> tuple:
    """(faces, spaces, offsets, coboundaries) of the Cech complex: per degree p,
    the sorted faces of dimension p, their direct sum of section spaces, the
    start of each face's block in it, and delta from degree p, with
    delta.delta = 0 left to whichever complex or grid is built from them."""
    if sheaf.nerve != nerve:
        raise ValueError("sheaf data belongs to a different nerve")
    faces = [nerve.faces_of_dim(p) for p in range(nerve.max_dim + 1)]
    spaces = tuple(LabeledSpace(tuple((face, lab) for face in fs
                                      for lab in sheaf.space(face).labels)) for fs in faces)
    offsets = [list(itertools.accumulate([sheaf.space(f).dim for f in fs], initial=0))
               for fs in faces]
    diffs = []
    for p in range(len(faces) - 1):
        src_index = {f: i for i, f in enumerate(faces[p])}
        blocks = [(gi, src_index[sub], -1 if i % 2 else 1, sheaf.restriction(g, i))
                  for gi, g in enumerate(faces[p + 1]) for i, sub in _drops(g)]
        diffs.append(LinearMap.from_blocks(spaces[p], spaces[p + 1], offsets[p], offsets[p + 1],
                                           blocks))
    return faces, spaces, offsets, tuple(diffs)


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
        for i, sub in _drops(f):
            index = {pt: j for j, pt in enumerate(spaces[sub].labels)}
            rows = [((index[pt], ONE),) for pt in spaces[f].labels]
            restrictions[(f, i)] = LinearMap.sparse(spaces[sub], spaces[f], rows)
    return SheafOnCover(nerve, spaces, restrictions)


class HyperResult(Record):
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
    from .grid import DoubleComplex

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
    P, Q = nerve.max_dim, levels - 1
    cells = {(p, q): space for q, (_, spaces, _, _) in enumerate(cochains)
             for p, space in enumerate(spaces)}
    horiz = {(p, q): d for q, (_, _, _, diffs) in enumerate(cochains) for p, d in enumerate(diffs)}
    vert = {}
    for q, maps in enumerate(level_maps):
        (faces, _, below, _), (_, _, above, _) = cochains[q], cochains[q + 1]
        for p, fs in enumerate(faces):
            vert[p, q] = LinearMap.from_blocks(cells[p, q], cells[p, q + 1], below[p], above[p],
                                               [(i, i, 1, maps[f]) for i, f in enumerate(fs)])
    return DoubleComplex._build((P, Q), cells, [horiz, vert])


def cech_hyper(nerve: CoverNerve, sheaves: Sequence[SheafOnCover],
               level_maps: Sequence[dict]) -> HyperResult:
    """Cech hypercohomology of a complex of sheaves on a cover.

    Returns the total cohomology dims of the Cech-sheaf double complex
    (by rank alone) along with both spectral sequences run out to the
    stable page and their convergence certificate, all from one total
    complex.
    """
    from .grid import total
    from .spectral import _analyse

    dc = cech_sheaf_double_complex(nerve, sheaves, level_maps)
    tot = total(dc)
    dims = cohomology_dims(tot)
    first, second, cert = _analyse(dc, tot, dims)
    return HyperResult(dc, tot, dims, first, second, cert)


# ---------------------------------------------------------------------------
# JSON schemas


def cover_to_json(nerve: CoverNerve, sheaf: SheafOnCover) -> dict:
    faces = sorted(nerve.faces, key=lambda f: (len(f), f))
    return {"opens": nerve.opens,
            "faces": [{"idx": list(f), "dim": sheaf.space(f).dim} for f in faces],
            "restrict": [{"from": list(sub), "to": list(f),
                          "matrix": matrix_to_json(sheaf.restriction(f, i).matrix)}
                         for f in faces for i, sub in _drops(f)]}


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


def _once(key, declared, field: str):
    """key, refused if an earlier entry declared it."""
    if key in declared:
        raise ValueError(f"{field}: {key} is declared twice")
    return key


def _read_faces(data: dict, opens: int, read) -> dict:
    """{face: read(faces[n], n)} over the `faces` entries, each a nonempty face of
    opens 0..opens-1 declared once; refused past MAX_DECLARED_FACES before any is read."""
    if not isinstance(data["faces"], list):
        raise ValueError("faces: must be a list")
    if len(data["faces"]) > MAX_DECLARED_FACES:
        raise ValueError(f"faces: {len(data['faces'])} declared, over the limit of "
                         f"{MAX_DECLARED_FACES}")
    faces = {}
    for n, entry in enumerate(data["faces"]):
        field = f"faces[{n}].idx"
        face = _once(face_from_json(entry["idx"], field), faces, field)
        if not face:
            raise ValueError(f"{field}: a face needs at least one open")
        if face[-1] >= opens:
            raise ValueError(f"{field}: open {face[-1]} is out of range for {opens} opens")
        faces[face] = read(entry, n)
    return faces


def _read_restrictions(data: dict, faces, read) -> dict:
    """{(face, i): read(restrict[n], n, source, face)}, one entry per drop of
    every declared face: an entry that is not a single drop between declared
    faces, a repeated entry and a missing drop are each refused."""
    given = {}
    for n, entry in enumerate(data.get("restrict", [])):
        src = _declared_face(entry["from"], f"restrict[{n}].from", faces)
        dst = _declared_face(entry["to"], f"restrict[{n}].to", faces)
        if all(sub != src for _, sub in _drops(dst)):
            raise ValueError(f"restriction {src} -> {dst} is not a single index drop")
        key = _once((src, dst), given, f"restrict[{n}]")
        given[key] = read(entry, n, src, dst)
    missing = [(sub, f) for f in faces for _, sub in _drops(f) if (sub, f) not in given]
    if missing:
        raise ValueError("restrict: no restriction from {} to {}".format(*missing[0]))
    return {(f, i): given[sub, f] for f in faces for i, sub in _drops(f)}


def cover_from_json(data: dict) -> tuple[CoverNerve, SheafOnCover]:
    opens = int_from_json(data["opens"], "opens")
    face_dims = _read_faces(data, opens, lambda e, n: int_from_json(e["dim"], f"faces[{n}].dim"))
    check_declared_dim(sum(face_dims.values()))
    nerve = CoverNerve(opens, frozenset(face_dims))
    spaces = {f: LabeledSpace(tuple((f, i) for i in range(d)))
              for f, d in face_dims.items()}
    restrictions = _read_restrictions(data, face_dims, lambda entry, n, src, dst: map_from_json(
        entry["matrix"], spaces[src], spaces[dst], f"restrict[{n}].matrix"))
    return nerve, SheafOnCover(nerve, spaces, restrictions)


def hyper_from_json(data: dict):
    from .grid import MAX_BOUND, GridTooLarge

    opens = int_from_json(data["opens"], "opens")
    levels = int_from_json(data["levels"], "levels")
    if levels < 1:
        raise ValueError(f"levels: must be at least 1, got {levels}")
    if levels > MAX_BOUND + 1:  # the grid has one row per level
        raise GridTooLarge(f"levels: {levels} declared, over the limit of {MAX_BOUND + 1}")

    def read_dims(entry, n):
        dims = [int_from_json(d, f"faces[{n}].dims[{q}]") for q, d in enumerate(entry["dims"])]
        if len(dims) != levels:
            raise ValueError(f"faces[{n}].dims: need one dim per level")
        return dims

    face_dims = _read_faces(data, opens, read_dims)
    check_declared_dim(sum(map(sum, face_dims.values())))
    nerve = CoverNerve(opens, frozenset(face_dims))
    level_spaces = [{f: LabeledSpace(tuple((q, f, i) for i in range(d[q])))
                     for f, d in face_dims.items()} for q in range(levels)]

    def read_matrices(entry, n, src, dst):
        if len(entry["matrices"]) != levels:
            raise ValueError("need one restriction matrix per level")
        return [map_from_json(m, level_spaces[q][src], level_spaces[q][dst],
                              f"restrict[{n}].matrices[{q}]")
                for q, m in enumerate(entry["matrices"])]

    restrictions = _read_restrictions(data, face_dims, read_matrices)
    sheaves = [SheafOnCover(nerve, level_spaces[q], {k: ms[q] for k, ms in restrictions.items()})
               for q in range(levels)]
    face_maps = {}
    for n, entry in enumerate(data.get("level_maps", [])):
        field = f"level_maps[{n}].idx"
        face = _once(_declared_face(entry["idx"], field, face_dims), face_maps, field)
        if len(entry["maps"]) != levels - 1:
            raise ValueError("need one level map per adjacent level pair")
        face_maps[face] = [map_from_json(m, level_spaces[q][face], level_spaces[q + 1][face],
                                         f"level_maps[{n}].maps[{q}]")
                           for q, m in enumerate(entry["maps"])]
    missing = [f for f in face_dims if f not in face_maps]
    if levels > 1 and missing:
        raise ValueError(f"level_maps: no entry for face {missing[0]}")
    return nerve, sheaves, [{f: ms[q] for f, ms in face_maps.items()} for q in range(levels - 1)]

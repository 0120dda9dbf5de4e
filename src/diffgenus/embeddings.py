"""Embedding schemes (rotation systems with edge signs) and face tracing.

A scheme assigns each vertex a cyclic order of its neighbors and each edge a
sign; all-positive signs describe an orientable embedding, and any negative
signature on a cycle makes the surface nonorientable. Faces are traced by
walking darts: after crossing an edge the walk turns to the next neighbor
clockwise or counterclockwise according to the product of signs seen so far.
The traversal runs on (dart, orientation) states; face boundary walks come in
mirror pairs, so the face count is half the orbit count.

`trace_faces` is the one check of a scheme against its graph, whether
`make_scheme` built it or `certificate_from_json` read it from a file: the
checksum binds, each vertex's rotation permutes its neighbours, and each
edge (u, v) with u < v has exactly one sign in {-1, +1}, with no sign for
any other pair. `make_scheme` only freezes rotations and signs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .simplegraph import SimpleGraph, edge_list_checksum


class SchemeError(ValueError):
    """Scheme does not fit the graph (bad rotation, missing sign, ...)."""


class CertificateMismatch(SchemeError):
    """Certificate was issued for a different graph (checksum mismatch)."""


@dataclass(frozen=True)
class EmbeddingScheme:
    """Rotations plus edge signs, bound to a graph by checksum."""

    rotations: tuple[tuple[int, ...], ...]
    signs: tuple[tuple[int, int, int], ...]  # (u, v, sign) with u < v
    graph_checksum: str
    seed: Optional[int] = None

    def sign_map(self) -> dict[tuple[int, int], int]:
        return {(u, v): s for u, v, s in self.signs}

    def to_json_dict(self, surface: str, genus: int) -> dict:
        return {
            "graph_checksum": self.graph_checksum,
            "surface": surface,
            "genus": genus,
            "rotations": [list(r) for r in self.rotations],
            "signs": [{"u": u, "v": v, "s": s} for u, v, s in self.signs],
            "seed": self.seed if self.seed is not None else 0,
        }


def make_scheme(
    g: SimpleGraph,
    rotations: Sequence[Sequence[int]],
    signs: Optional[Mapping[tuple[int, int], int]] = None,
    seed: Optional[int] = None,
) -> EmbeddingScheme:
    """Freeze rotations and signs into a scheme bound to g by checksum,
    each edge (u, v), u < v, signed +1 unless `signs` gives its sign. A
    sign key that is not an edge raises; `trace_faces` checks the rest."""
    sign_map = dict(signs) if signs else {}
    edges = g.edges()
    frozen = tuple((u, v, sign_map.pop((u, v), 1)) for u, v in edges)
    if sign_map:
        raise SchemeError(f"signs given for non-edges: {sorted(sign_map)}")
    return EmbeddingScheme(tuple(map(tuple, rotations)), frozen, edge_list_checksum(g.n, edges), seed)


@dataclass
class FaceTrace:
    faces: list[list[tuple[int, int]]]
    face_count: int
    euler_genus: int
    orientable: bool

    def matches(self, surface: str, genus: int) -> bool:
        """Whether the traced faces embed the graph in the claimed surface:
        an orientable claim needs a balanced scheme with Euler genus
        2*genus, a nonorientable claim an unbalanced scheme with Euler genus
        equal to the crosscap, or a planar one at crosscap 0."""
        if surface == "orientable":
            return self.orientable and self.euler_genus == 2 * genus
        if surface == "nonorientable":
            if genus == 0:
                return self.orientable and self.euler_genus == 0
            return (not self.orientable) and self.euler_genus == genus
        raise ValueError(f"unknown surface {surface!r}")


def trace_faces(g: SimpleGraph, scheme: EmbeddingScheme) -> FaceTrace:
    """Trace all facial walks of the scheme and report the Euler genus
    2c - V + E - F (c = number of components) and orientability.

    Raises CertificateMismatch when the scheme belongs to another graph
    and SchemeError when it breaks a rule of the module docstring.
    """
    if scheme.graph_checksum != g.checksum():
        raise CertificateMismatch("scheme checksum does not match graph")
    if len(scheme.rotations) != g.n:
        raise SchemeError(f"expected {g.n} rotations, got {len(scheme.rotations)}")
    for v, rot in enumerate(scheme.rotations):
        if sorted(rot) != g.neighbors(v):
            raise SchemeError(f"rotation at {v} is not a permutation of its neighbors")
    for u, v, s in scheme.signs:
        if not (0 <= u < v < g.n and g.has_edge(u, v)):
            raise SchemeError(f"sign given for ({u},{v}), not an edge with u < v")
        if s not in (-1, 1):  # any other value would send the orientation walk off without end
            raise SchemeError(f"sign of edge ({u},{v}) must be +-1")
    sign = scheme.sign_map()
    if len(sign) != len(scheme.signs):
        raise SchemeError("an edge has more than one sign")
    if 2 * len(sign) != sum(map(len, scheme.rotations)):  # checked rotations hold 2E entries
        raise SchemeError(f"edge {next(e for e in g.edges() if e not in sign)} has no sign")
    succ: list[dict[int, int]] = [dict() for _ in range(g.n)]
    pred: list[dict[int, int]] = [dict() for _ in range(g.n)]
    for v, rot in enumerate(scheme.rotations):
        d = len(rot)
        for i, u in enumerate(rot):
            succ[v][u] = rot[(i + 1) % d]
            pred[v][u] = rot[(i - 1) % d]

    def esign(u: int, v: int) -> int:
        return sign[(u, v) if u < v else (v, u)]

    # states: (u, v, o) -- dart u->v about to be consumed, orientation o
    visited: set[tuple[int, int, int]] = set()
    faces: list[list[tuple[int, int]]] = []
    for v0 in range(g.n):
        for u0 in scheme.rotations[v0]:
            for o0 in (1, -1):
                if (v0, u0, o0) in visited:
                    continue
                walk = []
                state = (v0, u0, o0)
                while state not in visited:
                    visited.add(state)
                    u, v, o = state
                    walk.append((u, v))
                    # mirror state of this step belongs to the reverse walk
                    o2 = o * esign(u, v)
                    visited.add((v, u, -o2))
                    w = succ[v][u] if o2 == 1 else pred[v][u]
                    state = (v, w, o2)
                faces.append(walk)

    edge_total = g.edge_count
    if sum(len(f) for f in faces) != 2 * edge_total:
        raise SchemeError("face lengths must sum to 2E")
    comps = g.connected_components()
    isolated = sum(1 for c in comps if len(c) == 1)
    face_count = len(faces) + isolated
    euler_genus = 2 * len(comps) - g.n + edge_total - face_count
    return FaceTrace(faces, face_count, euler_genus, _is_balanced(scheme.rotations, sign))


def _is_balanced(rotations: Sequence[Sequence[int]], sign: Mapping[tuple[int, int], int]) -> bool:
    """A sign assignment is balanced iff every cycle has positive product,
    i.e. vertex potentials can make all edges positive."""
    pot = [0] * len(rotations)
    seen = [False] * len(rotations)
    for s in range(len(rotations)):
        if seen[s]:
            continue
        seen[s] = True
        stack = [s]
        while stack:
            v = stack.pop()
            for w in rotations[v]:
                sw = sign[(v, w) if v < w else (w, v)]
                want = pot[v] ^ (sw < 0)
                if not seen[w]:
                    seen[w] = True
                    pot[w] = want
                    stack.append(w)
                elif pot[w] != want:
                    return False
    return True


def verify_certificate(
    g: SimpleGraph, scheme: EmbeddingScheme, surface: str, genus: int
) -> bool:
    """True iff the scheme embeds g in the claimed surface, by
    `FaceTrace.matches`. Graph/scheme mismatches raise; a wrong claim just
    returns False."""
    return trace_faces(g, scheme).matches(surface, genus)


# ---------------------------------------------------------------------------
# Certificate files


def certificate_to_json(scheme: EmbeddingScheme, surface: str, genus: int) -> str:
    return json.dumps(scheme.to_json_dict(surface, genus), indent=2, sort_keys=True)


def certificate_from_json(text: str) -> tuple[EmbeddingScheme, str, int]:
    """Parse a certificate file. Raises SchemeError on a missing field, a
    field of the wrong shape, a number that is not a JSON integer, a
    negative genus or an unknown surface."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise SchemeError("certificate must be a JSON object")
    for key in ("graph_checksum", "surface", "genus", "rotations", "signs"):
        if key not in doc:
            raise SchemeError(f"certificate missing field {key!r}")
    if doc["surface"] not in ("orientable", "nonorientable"):
        raise SchemeError(f"unknown surface {doc['surface']!r}")
    try:
        rotations = tuple(tuple(_json_int(x, "rotation entry") for x in rot) for rot in doc["rotations"])
        signs = tuple(tuple(_json_int(e[k], k) for k in "uvs") for e in doc["signs"])
    except (KeyError, TypeError) as exc:
        raise SchemeError(f"malformed certificate ({type(exc).__name__}: {exc})") from exc
    genus = _json_int(doc["genus"], "genus")
    if genus < 0:
        raise SchemeError(f"genus must be >= 0, got {genus}")
    seed = _json_int(doc.get("seed", 0), "seed")
    return EmbeddingScheme(rotations, signs, str(doc["graph_checksum"]), seed), doc["surface"], genus


def _json_int(value, what: str) -> int:
    # type(), not isinstance(): bool is a subclass of int
    if type(value) is not int:
        raise SchemeError(f"{what} must be an integer, got {json.dumps(value)}")
    return value

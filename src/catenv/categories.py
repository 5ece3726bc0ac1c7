"""Left cancellative small categories under several presentation classes.

Every presentation supports the same four oracles: composition, left division,
alignment (minimal principal decompositions of intersections c𝔠 ∩ d𝔠), and ball
enumeration. Morphisms are normal-form words over the presentation's generators,
so equality is syntactic. Path categories, ℕ^k, finite tables and groupoid
subcategories also hand out one shared object per normal form. Generator names
must be distinct.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

from .gpd import FiniteGroupoid


class MalformedPresentation(ValueError):
    pass


class AlignmentUnavailable(RuntimeError):
    pass


@dataclass(frozen=True)
class Morphism:
    word: tuple[str, ...]
    dom: str
    tgt: str
    degree: tuple[int, ...] | None = None

    @property
    def is_identity(self):
        return not self.word

    def label(self):
        return "*".join(self.word) if self.word else f"id:{self.dom}"

    def __repr__(self):
        return self.label()


@dataclass
class ValidationReport:
    ok: bool
    mode: str  # "exhaustive" | "structural" | "bounded(N)"
    left_cancellative: bool | None = None
    right_cancellative: bool | None = None
    failures: list[str] = field(default_factory=list)


class CategoryPresentation:
    """Common surface for the presentation classes."""

    class_name = "abstract"
    is_finite = False
    structurally_cancellative = False
    trivial_units_only = True  # no invertible morphisms besides identities

    objects: tuple[str, ...] = ()
    generator_names: tuple[str, ...] = ()
    _identities: dict[str, Morphism]  # object -> its shared identity

    # subclasses must implement: compose, divide_left, align_raw, ball

    def identity(self, obj) -> Morphism:
        return self._identities[obj]

    def compose(self, c: Morphism, d: Morphism) -> Morphism | None:
        raise NotImplementedError

    def divide_left(self, c: Morphism, m: Morphism) -> Morphism | None:
        """The unique x with m = c·x, or None. Uniqueness is left cancellation."""
        raise NotImplementedError

    def align(self, c: Morphism, d: Morphism):
        """Minimal complete set of pairs (x, y) with cx = dy and c𝔠∩d𝔠 = ⋃ cx𝔠."""
        cache = self.__dict__.setdefault("_align_cache", {})
        key = (c, d)
        if key not in cache:
            cache[key] = self._prune_alignment(c, self.align_raw(c, d))
        return cache[key]

    def align_raw(self, c, d):
        raise NotImplementedError

    def ball(self, n=None) -> list[Morphism]:
        raise NotImplementedError

    def validate(self) -> ValidationReport:
        raise NotImplementedError

    def in_ideal(self, b: Morphism, m: Morphism) -> bool:
        """m ∈ b𝔠."""
        return self.divide_left(b, m) is not None

    def sort_key(self, m: Morphism):
        index = self.__dict__.get("_sort_index")
        if index is None or index[0] is not self.generator_names \
                or index[1] is not self.objects:
            index = self._sort_index = (
                self.generator_names, self.objects,
                {name: i for i, name in enumerate(self.generator_names)},
                {o: i for i, o in enumerate(self.objects)})
        _, _, gi, oi = index
        return (len(m.word), tuple(map(gi.__getitem__, m.word)), oi[m.dom])

    def _check_nonempty(self):
        if not self.objects:
            raise MalformedPresentation("category with zero objects")

    @staticmethod
    def _check_distinct(names):
        seen = set()
        for name in names:
            if name in seen:
                raise MalformedPresentation(f"generator {name!r} listed twice")
            seen.add(name)

    def _prune_alignment(self, c, pairs):
        """Drop pairs whose ideal cx𝔠 sits inside another pair's; dedupe equal ideals."""
        if len(pairs) <= 1:  # nothing to drop
            return tuple(pairs)
        items = []
        for x, y in pairs:
            m = self.compose(c, x)
            items.append((m, x, y))
        items.sort(key=lambda t: self.sort_key(t[1]))
        kept = []
        for m, x, y in items:
            subsumed = False
            for m2, _, _ in kept:
                if self.in_ideal(m2, m):
                    subsumed = True
                    break
            if not subsumed:
                kept = [(m2, x2, y2) for m2, x2, y2 in kept if not self.in_ideal(m, m2)]
                kept.append((m, x, y))
        return tuple((x, y) for _, x, y in kept)


# -- finite composition tables ---------------------------------------------


class FiniteTable(CategoryPresentation):
    """A finite category given by an explicit composition table.

    `element_endpoints` lists a (name, (dom, tgt)) row for each non-identity
    element, each name once; objects double as identity elements. `table` maps
    composable non-identity pairs (c, d) to cd; rows involving identities are
    implied.
    """

    class_name = "finite_table"
    is_finite = True
    # table values must be element names, never objects, so no product of
    # non-identities is an identity: the only invertible morphisms are identities
    trivial_units_only = True

    def __init__(self, objects, element_endpoints, table):
        self.objects = tuple(objects)
        self._check_nonempty()
        element_endpoints = list(element_endpoints)
        self._check_distinct(name for name, _ in element_endpoints)
        self.endpoints = dict(element_endpoints)
        for name, (d, t) in self.endpoints.items():
            if d not in self.objects or t not in self.objects:
                raise MalformedPresentation(f"dangling endpoints on {name!r}")
            if name in self.objects:
                raise MalformedPresentation(f"element {name!r} clashes with an object")
        self.table = dict(table)
        self.generator_names = tuple(sorted(self.endpoints))
        self._identities = {o: Morphism((), o, o) for o in self.objects}
        self._named = {**self._identities,
                       **{name: Morphism((name,), d, t)
                          for name, (d, t) in self.endpoints.items()}}
        for (a, b), c in self.table.items():
            for x in (a, b, c):
                if x not in self.endpoints:
                    raise MalformedPresentation(f"table mentions unknown element {x!r}")

    def _morph(self, name):
        return self._named[name]

    def all_morphisms(self):
        return [self.identity(o) for o in self.objects] + \
               [self._morph(n) for n in self.generator_names]

    def compose(self, c, d):
        if c.dom != d.tgt:
            return None
        if c.is_identity:
            return d
        if d.is_identity:
            return c
        key = (c.word[0], d.word[0])
        if key not in self.table:
            return None
        return self._morph(self.table[key])

    def divide_left(self, c, m):
        if c.is_identity:
            return m if m.tgt == c.dom else None
        found = None
        for x in self.all_morphisms():
            if self.compose(c, x) == m:
                if found is not None:
                    raise MalformedPresentation(
                        f"left cancellation fails: {c}·{found} = {c}·{x}")
                found = x
        return found

    def align_raw(self, c, d):
        pairs = []
        for x in self.all_morphisms():
            m = self.compose(c, x)
            if m is None:
                continue
            y = self.divide_left(d, m)
            if y is not None:
                pairs.append((x, y))
        return pairs

    def ball(self, n=None):
        ms = self.all_morphisms()
        if n is not None:
            ms = [m for m in ms if len(m.word) <= n]
        return sorted(ms, key=self.sort_key)

    def validate(self):
        rep = ValidationReport(ok=True, mode="exhaustive")
        ms = self.all_morphisms()
        for (a, b) in self.table:
            if self.endpoints[a][0] != self.endpoints[b][1]:
                rep.failures.append(f"table row {a},{b} not composable")
        for c, d in itertools.product(ms, repeat=2):
            cd = self.compose(c, d)
            if (c.dom == d.tgt) and cd is None:
                rep.failures.append(f"missing composite {c}·{d}")
            if cd is not None and (cd.dom != d.dom or cd.tgt != c.tgt):
                rep.failures.append(f"endpoints of {c}·{d} wrong")
        for c, d, e in itertools.product(ms, repeat=3):
            if c.dom == d.tgt and d.dom == e.tgt:
                lhs = self.compose(self.compose(c, d), e)
                rhs = self.compose(c, self.compose(d, e))
                if lhs != rhs:
                    rep.failures.append(f"associativity fails on {c},{d},{e}")
        rep.left_cancellative = True
        rep.right_cancellative = True
        for c in ms:
            seen = {}
            for x in ms:
                m = self.compose(c, x)
                if m is None:
                    continue
                if m in seen and seen[m] != x:
                    rep.left_cancellative = False
                    rep.failures.append(
                        f"left cancellation fails: {c}·{seen[m]} = {c}·{x}")
                seen[m] = x
        for c in ms:
            seen = {}
            for x in ms:
                m = self.compose(x, c)
                if m is None:
                    continue
                if m in seen and seen[m] != x:
                    rep.right_cancellative = False
                    rep.failures.append(
                        f"right cancellation fails: {seen[m]}·{c} = {x}·{c}")
                seen[m] = x
        rep.ok = not any("missing" in f or "wrong" in f or "associativity" in f
                         or "row" in f for f in rep.failures) and rep.left_cancellative
        return rep


# -- path categories of directed graphs --------------------------------------


def _acyclic(objects, arcs) -> bool:
    """No directed cycle through the arcs (dom, tgt) of a graph on `objects`;
    its path category is then finite."""
    adj = {o: set() for o in objects}
    for d, t in arcs:
        adj[t].add(d)  # walking a path extends at the domain side
    state = {o: 0 for o in objects}

    def dfs(u):
        state[u] = 1
        for v in adj[u]:
            if state[v] == 1 or (state[v] == 0 and dfs(v)):
                return True
        state[u] = 2
        return False

    return not any(state[o] == 0 and dfs(o) for o in objects)


class GraphPath(CategoryPresentation):
    """The path category of a directed graph: free composition of edges.

    An edge e with dom w and tgt v is the morphism e: w → v; words read left to
    right from the outermost factor, so word[i] must satisfy dom(word[i]) =
    tgt(word[i+1]).
    """

    class_name = "graph_path"
    structurally_cancellative = True

    def __init__(self, objects, edges):
        self.objects = tuple(objects)
        self._check_nonempty()
        edges = list(edges)
        self._check_distinct(name for name, _, _ in edges)
        self.edges = {name: (d, t) for name, d, t in edges}
        for name, (d, t) in self.edges.items():
            if d not in self.objects or t not in self.objects:
                raise MalformedPresentation(f"dangling endpoints on edge {name!r}")
        self.generator_names = tuple(sorted(self.edges))
        self.is_finite = _acyclic(self.objects, self.edges.values())
        self._identities = {o: Morphism((), o, o) for o in self.objects}
        self._by_word: dict[tuple[str, ...], Morphism] = {}

    def _mk(self, word, dom, tgt):
        """The shared morphism of a path; a nonempty word fixes its endpoints."""
        if not word:
            return self.identity(dom)
        m = self._by_word.get(word)
        if m is None:
            m = self._by_word[word] = Morphism(word, dom, tgt)
        return m

    def compose(self, c, d):
        if c.dom != d.tgt:
            return None
        if c.is_identity:
            return d
        if d.is_identity:
            return c
        return self._mk(c.word + d.word, d.dom, c.tgt)

    def divide_left(self, c, m):
        if m.tgt != c.tgt or len(m.word) < len(c.word):
            return None
        if m.word[:len(c.word)] != c.word:
            return None
        rest = m.word[len(c.word):]
        return self._mk(rest, m.dom, c.dom)

    def align_raw(self, c, d):
        x = self.divide_left(d, c)
        if x is not None:  # c = d·x, so c𝔠 ⊆ d𝔠
            return [(self.identity(c.dom), x)]
        y = self.divide_left(c, d)
        if y is not None:
            return [(y, self.identity(d.dom))]
        return []

    def ball(self, n=None):
        if n is None:
            if not self.is_finite:
                raise AlignmentUnavailable("infinite path category; pass a radius")
            n = len(self.edges) * max(1, len(self.objects))
        out = [self.identity(o) for o in self.objects]
        frontier = list(out)
        for _ in range(n):
            nxt = []
            for m in frontier:
                for name in self.generator_names:
                    d, t = self.edges[name]
                    if t == m.dom:  # extend on the domain side
                        nxt.append(self._mk(m.word + (name,), d, m.tgt))
            out.extend(nxt)
            frontier = nxt
            if not frontier:
                break
        return sorted(set(out), key=self.sort_key)

    def validate(self):
        return ValidationReport(ok=True, mode="structural",
                                left_cancellative=True, right_cancellative=True)


class FreeMonoid(GraphPath):
    """Free monoid on a finite alphabet: the one-object path category."""

    class_name = "free_monoid"

    def __init__(self, letters, obj="*"):
        super().__init__((obj,), [(a, obj, obj) for a in letters])
        self.letters = tuple(sorted(letters))

    def word(self, s):
        """Morphism from a plain string of single-letter generators."""
        return self._mk(tuple(s), self.objects[0], self.objects[0])


# -- the lattice monoids ℕ^k -------------------------------------------------


class NkMonoid(CategoryPresentation):
    """The additive monoid ℕ^k; generators e1..ek, words sorted by coordinate.

    Each lattice point has one shared morphism, kept in a memo keyed by its
    degree vector: `vector` validates its argument, and compose, divide_left
    and align_raw, whose results are valid by construction, read the memo.
    """

    class_name = "nk_monoid"
    structurally_cancellative = True

    def __init__(self, k, obj="*"):
        if k < 1:
            raise MalformedPresentation("k must be >= 1")
        self.k = k
        self.objects = (obj,)
        self.generator_names = tuple(f"e{i + 1}" for i in range(k))
        self._by_degree: dict[tuple[int, ...], Morphism] = {}
        self._zero = (0,) * k

    def vector(self, vec):
        vec = tuple(int(v) for v in vec)
        if len(vec) != self.k or any(v < 0 for v in vec):
            raise MalformedPresentation(f"bad lattice point {vec!r}")
        m = self._by_degree.get(vec)
        if m is None:
            word = tuple(itertools.chain.from_iterable(
                [self.generator_names[i]] * v for i, v in enumerate(vec)))
            m = self._by_degree[vec] = Morphism(word, self.objects[0], self.objects[0],
                                                degree=vec)
        return m

    def _shared(self, vec):
        """The morphism of a lattice point known to be valid."""
        m = self._by_degree.get(vec)
        return m if m is not None else self.vector(vec)

    def identity(self, obj=None):
        return self._shared(self._zero)

    def compose(self, c, d):
        return self._shared(tuple(map(operator.add, c.degree, d.degree)))

    def divide_left(self, c, m):
        diff = tuple(map(operator.sub, m.degree, c.degree))
        if min(diff) < 0:
            return None
        return self._shared(diff)

    def align_raw(self, c, d):
        lcm = tuple(map(max, c.degree, d.degree))
        return [(self._shared(tuple(map(operator.sub, lcm, c.degree))),
                 self._shared(tuple(map(operator.sub, lcm, d.degree))))]

    def ball(self, n=None):
        if n is None:
            raise AlignmentUnavailable("ℕ^k is infinite; pass a radius")
        out = []
        for total in range(n + 1):
            for cuts in itertools.combinations(range(total + self.k - 1), self.k - 1):
                prev, vec = -1, []
                for c in cuts:
                    vec.append(c - prev - 1)
                    prev = c
                vec.append(total + self.k - 2 - prev)
                out.append(self.vector(tuple(vec)))
        return sorted(out, key=self.sort_key)

    def validate(self):
        return ValidationReport(ok=True, mode="structural",
                                left_cancellative=True, right_cancellative=True)


# -- higher-rank graphs -------------------------------------------------------


class KGraph(CategoryPresentation):
    """A k-graph: colored edges plus bijective factorization squares.

    Normal form sorts words by ascending color. A square row (e, f, f2, e2) with
    color(e) < color(f) asserts e∘f = f2∘e2, i.e. the descending word (f2, e2)
    rewrites to (e, f).
    """

    class_name = "kgraph"
    structurally_cancellative = True

    def __init__(self, objects, edges, squares, k=2):
        self.objects = tuple(objects)
        self._check_nonempty()
        self.k = k
        edges = list(edges)
        self._check_distinct(name for name, _, _, _ in edges)
        self.edges = {}
        for name, d, t, color in edges:
            if d not in self.objects or t not in self.objects:
                raise MalformedPresentation(f"dangling endpoints on edge {name!r}")
            if not 0 <= color < k:
                raise MalformedPresentation(f"edge {name!r} has color {color} outside 0..{k - 1}")
            self.edges[name] = (d, t, color)
        self.generator_names = tuple(sorted(self.edges))
        self.flip_down = {}  # (hi, lo) -> (lo', hi')
        self.flip_up = {}    # (lo, hi) -> (hi', lo')
        for e, f, f2, e2 in squares:
            for x in (e, f, f2, e2):
                if x not in self.edges:
                    raise MalformedPresentation(f"square mentions unknown edge {x!r}")
            if not (self.color(e) < self.color(f) and self.color(f2) > self.color(e2)
                    and self.color(e) == self.color(e2) and self.color(f) == self.color(f2)):
                raise MalformedPresentation(f"square {e},{f} = {f2},{e2} has wrong colors")
            self.flip_up[(e, f)] = (f2, e2)
            self.flip_down[(f2, e2)] = (e, f)
        self._check_squares()
        self.is_finite = _acyclic(self.objects, ((d, t) for d, t, _ in self.edges.values()))
        self._identities = {o: Morphism((), o, o, degree=(0,) * k) for o in self.objects}

    def color(self, edge):
        return self.edges[edge][2]

    def _composable_pairs(self, pred):
        for a, b in itertools.product(self.edges, repeat=2):
            if self.edges[a][0] == self.edges[b][1] and pred(a, b):
                yield a, b

    def _check_squares(self):
        asc = set(self._composable_pairs(lambda a, b: self.color(a) < self.color(b)))
        desc = set(self._composable_pairs(lambda a, b: self.color(a) > self.color(b)))
        if set(self.flip_up) != asc:
            missing = asc - set(self.flip_up)
            extra = set(self.flip_up) - asc
            raise MalformedPresentation(
                f"factorization squares not total: missing {sorted(missing)}, stray {sorted(extra)}")
        if set(self.flip_down) != desc or len(set(self.flip_up.values())) != len(asc):
            raise MalformedPresentation("factorization squares are not a bijection")
        for (e, f), (f2, e2) in self.flip_up.items():
            ed, et, _ = self.edges[e]
            fd, ft, _ = self.edges[f]
            f2d, f2t, _ = self.edges[f2]
            e2d, e2t, _ = self.edges[e2]
            if not (f2t == et and e2d == fd and f2d == e2t):
                raise MalformedPresentation(f"square {e},{f}={f2},{e2} breaks endpoints")

    def _normalize(self, word):
        w = list(word)
        changed = True
        while changed:
            changed = False
            for p in range(len(w) - 1):
                if self.color(w[p]) > self.color(w[p + 1]):
                    w[p], w[p + 1] = self.flip_down[(w[p], w[p + 1])]
                    changed = True
        return tuple(w)

    def _mk(self, word, dom, tgt):
        deg = [0] * self.k
        for x in word:
            deg[self.color(x)] += 1
        return Morphism(tuple(word), dom, tgt, degree=tuple(deg))

    def path(self, word):
        word = tuple(word)
        if not word:
            raise MalformedPresentation("use identity(obj) for empty paths")
        for a, b in zip(word, word[1:]):
            if self.edges[a][0] != self.edges[b][1]:
                raise MalformedPresentation(f"path breaks at {a},{b}")
        nf = self._normalize(word)
        return self._mk(nf, self.edges[word[-1]][0], self.edges[word[0]][1])

    def compose(self, c, d):
        if c.dom != d.tgt:
            return None
        if c.is_identity:
            return d
        if d.is_identity:
            return c
        return self._mk(self._normalize(c.word + d.word), d.dom, c.tgt)

    def _left_edge_factor(self, word, j):
        """Unique factorization word = (color-j edge)·rest; None if degree j is 0."""
        w = list(word)
        idx = next((i for i, x in enumerate(w) if self.color(x) == j), None)
        if idx is None:
            return None
        for p in range(idx, 0, -1):
            w[p - 1], w[p] = self.flip_up[(w[p - 1], w[p])]
        return w[0], tuple(w[1:])

    def divide_left(self, c, m):
        if m.tgt != c.tgt:
            return None
        if any(a > b for a, b in zip(c.degree, m.degree)):
            return None
        rest = m.word
        for letter in c.word:
            got = self._left_edge_factor(rest, self.color(letter))
            if got is None or got[0] != letter:
                return None
            rest = got[1]
        dom = self.edges[rest[-1]][0] if rest else c.dom
        return self._mk(rest, dom, c.dom)

    def _extensions(self, obj, degvec):
        """Normal-form words x with tgt(x) = obj and degree degvec."""
        degvec = list(degvec)
        if not any(degvec):
            yield self.identity(obj)
            return
        j = next(i for i, v in enumerate(degvec) if v > 0)
        for name in self.generator_names:
            d, t, color = self.edges[name]
            if color != j or t != obj:
                continue
            rest = degvec[:]
            rest[j] -= 1
            for tail in self._extensions(d, rest):
                word = (name,) + tail.word
                yield self._mk(word, tail.dom, obj)

    def align_raw(self, c, d):
        lcm = tuple(max(a, b) for a, b in zip(c.degree, d.degree))
        pairs = []
        for x in self._extensions(c.dom, tuple(l - a for l, a in zip(lcm, c.degree))):
            m = self.compose(c, x)
            y = self.divide_left(d, m)
            if y is not None:
                pairs.append((x, y))
        return pairs

    def ball(self, n=None):
        """The paths of total degree at most n, every path when n is None.
        Totals are walked upwards and stop at the first that has no path: a
        path of total t + 1 has a prefix of total t, so no later one has any."""
        if n is None:
            if not self.is_finite:
                raise AlignmentUnavailable("infinite k-graph; pass a radius")
            n = len(self.edges) * max(1, len(self.objects))
        out = []
        for total in range(n + 1):
            paths = [m for degvec in itertools.product(range(total + 1), repeat=self.k)
                     if sum(degvec) == total
                     for obj in self.objects for m in self._extensions(obj, degvec)]
            if not paths:
                break
            out += paths
        return sorted(set(out), key=self.sort_key)

    def validate(self):
        rep = ValidationReport(ok=True, mode="structural",
                               left_cancellative=True, right_cancellative=True)
        if self.k >= 3:
            # confluence on mixed-color triples; exhaustive when finite
            bound = None if self.is_finite else 8
            rep.mode = "exhaustive" if self.is_finite else f"bounded({bound})"
            for a, b in self._composable_pairs(lambda a, b: True):
                for c in self.edges:
                    if self.edges[b][0] != self.edges[c][1]:
                        continue
                    if len({self.color(a), self.color(b), self.color(c)}) < 3:
                        continue
                    w = (a, b, c)
                    if self._normalize(w) != self._normalize_rightmost(w):
                        rep.ok = False
                        rep.failures.append(f"non-confluent triple {w}")
        return rep

    def _normalize_rightmost(self, word):
        w = list(word)
        changed = True
        while changed:
            changed = False
            for p in range(len(w) - 2, -1, -1):
                if self.color(w[p]) > self.color(w[p + 1]):
                    w[p], w[p + 1] = self.flip_down[(w[p], w[p + 1])]
                    changed = True
        return tuple(w)


# -- subcategories of finite groupoids ----------------------------------------


class GroupoidSub(CategoryPresentation):
    """A subcategory of an ambient finite groupoid given by a chosen element set."""

    class_name = "groupoid_sub"
    is_finite = True
    structurally_cancellative = True
    trivial_units_only = False

    def __init__(self, ambient: FiniteGroupoid, chosen):
        self.ambient = ambient
        self.chosen = set(chosen)
        units = sorted({ambient.source[g] for g in self.chosen}
                       | {ambient.range[g] for g in self.chosen}, key=str)
        for u in units:
            if u not in self.chosen:
                raise MalformedPresentation(
                    f"needed identity {u!r} missing from the chosen set")
        for g, h in itertools.product(self.chosen, repeat=2):
            if ambient.composable(g, h) and ambient.mul(g, h) not in self.chosen:
                raise MalformedPresentation(
                    f"chosen set not closed: {g!r}·{h!r} escapes")
        self.objects = tuple(str(u) for u in units)
        self._unit_of = {str(u): u for u in units}
        self._label = {g: str(g) for g in self.chosen}
        self.generator_names = tuple(sorted(self._label[g] for g in self.chosen
                                            if g not in set(units)))
        self._by_label = {self._label[g]: g for g in self.chosen}
        self._identities = {o: Morphism((), o, o) for o in self.objects}
        self._morphs = {g: self._identities[str(g)] if ambient.is_unit(g)
                        else Morphism((self._label[g],), str(ambient.source[g]),
                                      str(ambient.range[g]))
                        for g in self.chosen}

    def _morph(self, g):
        return self._morphs[g]

    def _elem(self, m: Morphism):
        if m.is_identity:
            return self._unit_of[m.dom]
        return self._by_label[m.word[0]]

    def all_morphisms(self):
        return sorted((self._morph(g) for g in self.chosen), key=self.sort_key)

    def compose(self, c, d):
        if c.dom != d.tgt:
            return None
        return self._morph(self.ambient.mul(self._elem(c), self._elem(d)))

    def divide_left(self, c, m):
        if m.tgt != c.tgt:
            return None
        x = self.ambient.mul(self.ambient.inv(self._elem(c)), self._elem(m))
        return self._morph(x) if x in self.chosen else None

    def align_raw(self, c, d):
        pairs = []
        for g in self.chosen:
            x = self._morph(g)
            m = self.compose(c, x)
            if m is None:
                continue
            y = self.divide_left(d, m)
            if y is not None:
                pairs.append((x, y))
        return pairs

    def ball(self, n=None):
        ms = self.all_morphisms()
        if n is not None:
            ms = [m for m in ms if len(m.word) <= n]
        return ms

    def validate(self):
        return ValidationReport(ok=True, mode="structural",
                                left_cancellative=True, right_cancellative=True)


# -- binary direct products ----------------------------------------------------


class DirectProduct(CategoryPresentation):
    """Product of two presentations; morphisms are pairs, encoded with tagged letters."""

    class_name = "direct_product"

    def __init__(self, left: CategoryPresentation, right: CategoryPresentation):
        self.left = left
        self.right = right
        self.objects = tuple(f"{a}×{b}" for a in left.objects for b in right.objects)
        self.generator_names = tuple(
            [f"L:{g}" for g in left.generator_names] +
            [f"R:{g}" for g in right.generator_names])
        self.is_finite = left.is_finite and right.is_finite
        self.structurally_cancellative = (left.structurally_cancellative
                                          and right.structurally_cancellative)
        self.trivial_units_only = left.trivial_units_only and right.trivial_units_only

    def pair(self, c: Morphism, d: Morphism):
        word = tuple(f"L:{w}" for w in c.word) + tuple(f"R:{w}" for w in d.word)
        return Morphism(word, f"{c.dom}×{d.dom}", f"{c.tgt}×{d.tgt}")

    def split(self, m: Morphism):
        lw = tuple(w[2:] for w in m.word if w.startswith("L:"))
        rw = tuple(w[2:] for w in m.word if w.startswith("R:"))
        ld, rd = m.dom.split("×")
        lt, rt = m.tgt.split("×")
        lm = self._lift(self.left, lw, ld, lt)
        rm = self._lift(self.right, rw, rd, rt)
        return lm, rm

    @staticmethod
    def _lift(pres, word, dom, tgt):
        if not word:
            return pres.identity(dom)
        m = Morphism(word, dom, tgt)
        if isinstance(pres, (NkMonoid, KGraph)):
            deg = [0] * pres.k
            for w in word:
                deg[pres.color(w) if isinstance(pres, KGraph) else
                    pres.generator_names.index(w)] += 1
            m = Morphism(word, dom, tgt, degree=tuple(deg))
        return m

    def identity(self, obj):
        a, b = obj.split("×")
        return self.pair(self.left.identity(a), self.right.identity(b))

    def compose(self, c, d):
        c1, c2 = self.split(c)
        d1, d2 = self.split(d)
        m1 = self.left.compose(c1, d1)
        m2 = self.right.compose(c2, d2)
        if m1 is None or m2 is None:
            return None
        return self.pair(m1, m2)

    def divide_left(self, c, m):
        c1, c2 = self.split(c)
        m1, m2 = self.split(m)
        x1 = self.left.divide_left(c1, m1)
        x2 = self.right.divide_left(c2, m2)
        if x1 is None or x2 is None:
            return None
        return self.pair(x1, x2)

    def align_raw(self, c, d):
        c1, c2 = self.split(c)
        d1, d2 = self.split(d)
        out = []
        for (x1, y1) in self.left.align(c1, d1):
            for (x2, y2) in self.right.align(c2, d2):
                out.append((self.pair(x1, x2), self.pair(y1, y2)))
        return out

    def ball(self, n=None):
        if n is None and not self.is_finite:
            raise AlignmentUnavailable("infinite product; pass a radius")
        lb = self.left.ball(n)
        rb = self.right.ball(n)
        out = [self.pair(a, b) for a in lb for b in rb
               if n is None or len(a.word) + len(b.word) <= n]
        return sorted(out, key=self.sort_key)

    def validate(self):
        r1, r2 = self.left.validate(), self.right.validate()
        mode = "structural" if r1.mode == r2.mode == "structural" else \
            ("exhaustive" if "bounded" not in r1.mode + r2.mode else "bounded(8)")
        lc = None if None in (r1.left_cancellative, r2.left_cancellative) else \
            r1.left_cancellative and r2.left_cancellative
        rc = None if None in (r1.right_cancellative, r2.right_cancellative) else \
            r1.right_cancellative and r2.right_cancellative
        return ValidationReport(ok=r1.ok and r2.ok, mode=mode,
                                left_cancellative=lc, right_cancellative=rc,
                                failures=r1.failures + r2.failures)

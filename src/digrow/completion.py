"""The rules engine: homogeneous associative input described by its reduced
Gröbner–Shirshov basis, truncated at the codec's cap.

Words are ordered deg-lex with the first letter most significant, which is
associative key order (see KeyCodec), so a rule's pivot is its leading word.
The normal words are the words that contain no leading word (Bergman's
diamond lemma), so they are listed and counted by an Aho–Corasick automaton
of the leading words, without visiting the other words (Ufnarovski).  On
homogeneous input the basis truncated at the cap gives exact normal forms
through the cap even when the full basis is infinite.
digrow.presentation._saturation_rows imports this module on first use.
"""

from __future__ import annotations

from math import gcd

from .monomial import KeyCodec
from .presentation import _KILLED, Presentation, _insert_row, _integer_terms, _reduce_terms

# the memo's mark for a word read and found normal
_NORMAL = object()


def _row(rows, d: int, terms: list, p: int):
    """The row x - nf(x) of x = -sum(c*key)/d over GF(p), p = 0 for Q,
    with the terms reduced against rows: made primitive, or _KILLED when
    x reduces to 0."""
    L, tail = _reduce_terms(terms, rows, p)
    if not tail:
        return _KILLED
    if p:
        return 1, tail
    d *= L
    g = gcd(d, *tail.values())
    return d // g, {y: c // g for y, c in tail.items()}


class RuleRows:
    """The kernel rows {pivot: (d, tail)} of a homogeneous associative
    table, held as rewriting rules.  It answers get, in, basis_keys and
    pivot_counts.

    A rule is the row lw + tail/d of a leading word lw; its tail holds
    normal words only.  Every word up to the codec's cap that contains a
    leading word is a pivot, with the row w - nf(w): w = u lw v is
    rewritten to -(1/d) u tail v, and so on down, since every rewrite
    lowers the word.  Such a row is computed when it is first read and
    memoized, and so is the finding that a word read is normal.  The
    reduced echelon form of a span is unique, so these rows are the rows
    elimination stores.
    """

    __slots__ = ("_keys", "_p", "_rules", "_memo", "_end", "_pow", "_goto", "_hit", "_walk")

    def __init__(self, keys: KeyCodec, p: int):
        self._keys, self._p = keys, p
        self._rules: dict = {}
        # the rules, and every word read since the last rules came
        self._memo: dict = {}
        self._end, self._pow = keys.offset(keys.cap + 1), keys._pow
        self._build()

    def _build(self) -> None:
        """The automaton of the leading words: _goto[s][g] is the state
        after letter g from state s, failure links folded in, and _hit[s]
        the length of the leading word that ends there, 0 for none.  The
        rules are reduced, so at most one leading word ends anywhere."""
        k, pw = self._pow[1], self._pow
        goto, hit = [[-1] * k], [0]
        for x in self._rules:
            t, _, w = self._keys.split(x)
            s = 0
            for i in range(t - 1, -1, -1):
                g = w // pw[i] % k
                if goto[s][g] < 0:
                    goto[s][g] = len(goto)
                    goto.append([-1] * k)
                    hit.append(0)
                s = goto[s][g]
            hit[s] = t
        fail = [0] * len(goto)
        queue = [s for s in goto[0] if s > 0]
        goto[0] = [max(s, 0) for s in goto[0]]
        for s in queue:  # breadth first; the queue grows as it is read
            hit[s] = hit[s] or hit[fail[s]]
            row, back = goto[s], goto[fail[s]]
            for g in range(k):
                if row[g] < 0:
                    row[g] = back[g]
                else:
                    fail[row[g]] = back[g]
                    queue.append(row[g])
        self._goto, self._hit = goto, hit
        # _walk[t]: (word values, automaton states) of the normal words of length t
        self._walk = [([0], [0])]

    def _add(self, new: dict) -> None:
        """Take new rules of one degree, above every rule held."""
        self._rules.update(new)
        # rows read so far were rewritten without the new rules
        self._memo = dict(self._rules)
        self._build()

    def _find(self, t: int, w: int):
        """(i, l) for the first leading word in the word value w of length
        t: it has length l and ends at the letter of weight k**i; None
        when the word is normal."""
        goto, hit, pw = self._goto, self._hit, self._pow
        k, s = pw[1], 0
        for i in range(t - 1, -1, -1):
            s = goto[s][w // pw[i] % k]
            if hit[s]:
                return i, hit[s]
        return None

    def _step(self, x: int):
        """One rewrite of the word x: (d, [(key, c)]) for x = -sum(c*key)/d,
        replacing its first leading word by the rule's tail; None when x is
        normal."""
        t, _, w = self._keys.split(x)
        found = self._find(t, w)
        if found is None:
            return None
        i, l = found
        lw = self._keys.offset(l) + w // self._pow[i] % self._pow[l]
        d, tail = self._rules[lw]
        shift = self._pow[i]
        return d, [(x + (y - lw) * shift, c) for y, c in tail.items()]

    def get(self, x: int, default=None):
        if not 0 <= x < self._end:
            return default
        row = self._memo.get(x)
        if row is None:
            row = self._read(x)
        return default if row is _NORMAL else row

    def _read(self, x: int):
        """The row of the word x, or _NORMAL, memoized with those of the
        words its rewrites reach: depth first, without recursion, since
        rewriting chains can be long."""
        memo = self._memo
        step = self._step(x)
        if step is None:
            memo[x] = _NORMAL
            return _NORMAL
        todo = [[x, *step, 0]]
        while todo:
            frame = todo[-1]
            y, d, terms, i = frame
            while i < len(terms):
                z = terms[i][0]
                i += 1
                if z not in memo:
                    nxt = self._step(z)
                    if nxt is None:
                        memo[z] = _NORMAL
                    else:
                        frame[3] = i
                        todo.append([z, *nxt, 0])
                        break
            else:
                todo.pop()
                # every key among terms is read, so no get below recurses
                memo[y] = _row(self, d, terms, self._p)
        return memo[x]

    def __contains__(self, x) -> bool:
        if not 0 <= x < self._end:
            return False
        t, _, w = self._keys.split(x)
        return self._find(t, w) is not None

    def normal_words(self, t: int) -> list[int]:
        """The word values of the normal words of length t, ascending, by
        walking the automaton one letter at a time."""
        walk, goto, hit, k = self._walk, self._goto, self._hit, self._pow[1]
        while len(walk) <= t:
            ws, states = walk[-1]
            nws, nstates = [], []
            for w, s in zip(ws, states):
                for g, s2 in enumerate(goto[s]):
                    if not hit[s2]:
                        nws.append(w * k + g)
                        nstates.append(s2)
            walk.append((nws, nstates))
        return walk[t][0]

    def basis_keys(self, start: int, stop: int) -> list[int]:
        """The keys in range(start, stop) that these rows leave in the
        basis, stop at most offset(cap + 1): the normal words."""
        offset, out = self._keys.offset, []
        for t in range(1, self._keys.cap + 1):
            off = offset(t)
            if off >= stop:
                break
            if offset(t + 1) > start:
                out += [off + w for w in self.normal_words(t) if start <= off + w < stop]
        return out

    def pivot_counts(self, n: int) -> list[int]:
        """How many pivots these rows hold at each degree 1..n, n <= cap:
        k**t less the normal words of length t, counted per automaton state
        without listing them."""
        goto, hit, pw = self._goto, self._hit, self._pow
        counts, out = {0: 1}, []
        for t in range(1, n + 1):
            nxt: dict = {}
            for s, c in counts.items():
                for s2 in goto[s]:
                    if not hit[s2]:
                        nxt[s2] = nxt.get(s2, 0) + c
            counts = nxt
            out.append(pw[t] - sum(counts.values()))
        return out


def _compositions(keys: KeyCodec, pw: list, f: int, rf: tuple, g: int, rg: tuple):
    """The overlap compositions of the rules f and g, keyed by their
    leading words: for each word u s v with lw(f) = u s and lw(g) = s v,
    u, s and v nonempty, d_g*f*v - d_f*u*g, whose leading terms cancel,
    as (degree, [(key, c)]).  Two rules with empty tails compose to 0."""
    (df, tf), (dg, tg) = rf, rg
    if not tf and not tg:
        return
    lf, _, wf = keys.split(f)
    lg, _, wg = keys.split(g)
    of, og = keys.offset(lf), keys.offset(lg)
    # s letters overlap, and the composition's degree lf + lg - s is at most the cap
    for s in range(max(1, lf + lg - keys.cap), min(lf, lg)):
        if wf % pw[s] != wg // pw[lg - s]:
            continue
        t, lv = lf + lg - s, lg - s
        o, u, v = keys.offset(t), wf // pw[s], wg % pw[lv]
        yield t, ([(o + (y - of) * pw[lv] + v, dg * c) for y, c in tf.items()]
                  + [(o + u * pw[lg] + y - og, -df * c) for y, c in tg.items()])


def _rule_rows(q: Presentation, keys: KeyCodec) -> RuleRows:
    """The rows _elimination_rows(q, keys) returns, for homogeneous q in
    associative mode, as a RuleRows.

    A homogeneous Buchberger run, degree by degree up to keys.cap.  The
    candidates of degree t are the relators of length t, the generator
    commutators g_j g_i - g_i g_j (i < j) at t = 2 when q has schemes
    (associative mode reads every scheme as commutativity, and these
    generate the ideal the scheme instances do), and the overlap
    compositions of degree t of the rules held.  Each is rewritten by
    the rules of lower degree, then reduced against and inserted among
    the candidates of its degree, so the rules of degree t come out
    inter-reduced and their leading words contain no other.
    """
    p, cap, k = q.field.p, keys.cap, q.alphabet.size
    rows = RuleRows(keys, p)
    pend: list[list] = [[] for _ in range(cap + 1)]
    for r in q.relators:
        t = r.max_length()
        if t <= cap:
            pend[t].append(_integer_terms(r.terms.items(), p, keys.encode)[1])
    if q.schemes and cap >= 2:
        o = keys.offset(2)
        pend[2] += [((o + j * k + i, 1), (o + i * k + j, -1))
                    for i in range(k) for j in range(i + 1, k)]
    for t in range(1, cap + 1):
        new, users = {}, {}
        for cand in pend[t]:
            _, nf = _reduce_terms(cand, rows, p)
            if nf:
                _, nf = _reduce_terms(nf.items(), new, p)
                if nf:
                    _insert_row(new, users, nf, p)
        pend[t] = None
        if not new:
            continue
        old = list(rows._rules.items())
        rows._add(new)
        fresh = list(new.items())
        for i, (g, rg) in enumerate(fresh):
            for f, rf in old + fresh[:i + 1]:
                pairs = ((f, rf, g, rg),) if f == g else ((f, rf, g, rg), (g, rg, f, rf))
                for pair in pairs:
                    for s, cand in _compositions(keys, rows._pow, *pair):
                        pend[s].append(cand)
    return rows

"""The four workloads: inputs, queries, answer checks and traffic profile.

A workload is built in three steps.  `build` draws the inputs from the
seed, `warm` does the set-up work a user pays once (monoid tables, the
enumeration cache), and `queries` lists the timed calls as (kind, thunk).
Thunks call the library through module attributes at call time, so the
tracer's wrappers see them.  `check` receives the first pass's results
and returns {query index: reason} for every answer that failed.  A
workload's `known_failure` names the errors that are known defects of the
library: they count as failures but leave the run correct.
"""

from __future__ import annotations

import collections
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import corpus
import oracles

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SCHEMA = "profinite-kit/v1"


def order_histogram(orders) -> dict:
    """Counts per power-of-two bucket, keyed by the bucket's lower end."""
    hist: dict[int, int] = collections.Counter()
    for n in orders:
        hist[1 << (max(n, 1).bit_length() - 1)] += 1
    return dict(sorted(hist.items()))


class Syntactic:
    """regex -> syntactic_semigroup -> green_relations -> kernel_g(monoid_of(S))."""

    def build(self, pk, seed):
        return {"regexes": corpus.syntactic_corpus(pk, seed)}

    def warm(self, pk, state):
        pass

    def queries(self, pk, state):
        def run(text, alphabet):
            res = pk.languages.syntactic_semigroup(
                pk.languages.parse_regex(text, alphabet), alphabet)
            green = pk.semigroups.green_relations(res.semigroup)
            kernel = pk.closure.kernel_g(pk.semigroups.monoid_of(res.semigroup)).kernel
            return (res.semigroup, res.morphism.letter_image, res.accept,
                    res.accepts_empty, green, kernel)
        return [("syntactic", lambda t=t, a=a: run(t, a)) for t, a in state["regexes"]]

    def check(self, pk, state, results):
        failures = {}
        for i, ((text, alphabet), result) in enumerate(zip(state["regexes"], results)):
            reason = result is not None and oracles.check_syntactic(text, alphabet, result)
            if reason:
                failures[i] = reason
        return failures

    def profile(self, state, results):
        orders = [r[0].order for r in results if r is not None]
        return {"monoid_orders": order_histogram(orders),
                "alphabet_sizes": dict(collections.Counter(len(a) for _, a in state["regexes"])),
                "largest_order": max(orders)}


class Closure:
    """Kernels through closures, pointlikes, separation and subgroup graphs."""

    def build(self, pk, seed):
        return {"kernel_regexes": corpus.kernel_regexes(pk, seed),
                "regexes": corpus.closure_regexes(pk, seed), "seed": seed}

    def warm(self, pk, state):
        monoids = [corpus.syntactic_monoid(pk, text) for text, _ in state["kernel_regexes"]]
        state["monoids"] = monoids
        rng = random.Random(f"closure-queries:{state['seed']}")
        items = [("kernel_via_closure", i) for i in range(len(monoids))]
        items += [("g_pointlike", (i, elements, False))
                  for i, elements in corpus.pointlike_subsets(rng, state["kernel_regexes"])]
        items += [("separation", corpus.separation_pair(rng, state["regexes"]))
                  for _ in range(corpus.SEPARATION_QUERIES)]
        items += [("stallings", pair) for pair in corpus.stallings_inputs(rng)]
        items += [("g_pointlike", (i, elements, True)) for i, elements in
                  corpus.constructed_pointlike(rng, monoids, state["kernel_regexes"])]
        state["items"] = items

    def queries(self, pk, state):
        monoids = state["monoids"]

        def kernel(i):
            monoid, morphism, _ = monoids[i]
            return pk.closure.kernel_via_closure(monoid, morphism)

        def pointlike(args):
            monoid, morphism, _ = monoids[args[0]]
            return pk.closure.g_pointlike(monoid, args[1], morphism)

        def separation(args):
            word, regex = args[0], pk.languages.parse_regex(args[1], "ab")
            separable = pk.closure.separable_by_group_language(word, regex, "ab")
            cert = pk.closure.separation_certificate(word, regex, ("a", "b")) if separable else None
            if cert is None:
                return separable, None
            return separable, (cert.group.table, cert.assignment, cert.word_image,
                               cert.language_images)

        def stallings(args):
            graph = pk.freegroup.stallings_graph(args[0])
            return graph.edges, tuple(pk.freegroup.subgroup_contains(graph, w) for w in args[1])

        run = {"kernel_via_closure": kernel, "g_pointlike": pointlike,
               "separation": separation, "stallings": stallings}
        return [(kind, lambda f=run[kind], a=args: f(a)) for kind, args in state["items"]]

    def check(self, pk, state, results):
        failures = {}
        group_images = [oracles.GroupImages(monoid, images)
                        for monoid, _, images in state["monoids"]]
        dfas = {text: pk.languages.to_minimal_dfa(pk.languages.parse_regex(text, "ab"), "ab")
                for text in state["regexes"]}
        for q, ((kind, args), result) in enumerate(zip(state["items"], results)):
            if result is None:
                continue
            if kind == "kernel_via_closure":
                expected = pk.closure.kernel_g(state["monoids"][args][0]).kernel
                reason = oracles.check_kernel(expected, result)
            elif kind == "g_pointlike":
                reason = oracles.check_pointlike(group_images[args[0]], *args[1:], result)
            elif kind == "separation":
                word, text = args
                reason = oracles.check_separation(word, text, dfas[text], result)
            else:
                reason = oracles.check_stallings(*args, result, corpus.PRODUCT_PROBES)
            if reason:
                failures[q] = reason
        return failures

    def profile(self, state, results):
        kinds = [kind for kind, _ in state["items"]]
        separable = [r[0] for k, r in zip(kinds, results) if k == "separation" and r]
        pointlike = [r[0] for k, r in zip(kinds, results) if k == "g_pointlike" and r]
        return {"monoid_orders": order_histogram(m.order for m, _, _ in state["monoids"]),
                "preimage_sizes": order_histogram(sum(s) for _, s in state["kernel_regexes"]),
                "separation_regex_orders": dict(corpus.CLOSURE_STRATA),
                "alphabet_sizes": dict(collections.Counter(
                    len({ch for g in args[0] for ch, _ in g}) if kind == "stallings" else 2
                    for kind, args in state["items"])),
                "query_mix": dict(collections.Counter(kinds)),
                "separable_share": round(sum(separable) / len(separable), 3),
                "pointlike_share": round(sum(pointlike) / len(pointlike), 3),
                "pointlike_by_construction": sum(corpus.CONSTRUCTED_POINTLIKE_STRATA.values()),
                "stallings_generators": list(corpus.STALLINGS_SIZES)}


class Search:
    """separation_rank of word pairs in every registered pseudovariety, plus counts."""

    def build(self, pk, seed):
        return {"pairs": corpus.search_pairs(seed), "defs": pk.kappa.registry()}

    def warm(self, pk, state):
        for n in range(1, corpus.MAX_ORDER + 1):
            for _ in pk.semigroups.enumerate_semigroups(n):
                pass

    def _items(self, state):
        items = [("ranks", pair) for pair in state["pairs"]]
        items += [("count", (n, iso)) for n in range(1, corpus.MAX_ORDER + 1)
                  for iso in (True, False)]
        return items

    def queries(self, pk, state):
        def ranks(u, v):
            out = {}
            for name, definition in state["defs"].items():
                r = pk.metric.separation_rank(u, v, definition, corpus.MAX_ORDER)
                out[name] = (r.rank, None, None) if r.witness is None else \
                    (r.rank, r.witness.semigroup.table, r.witness.assignment)
            return out

        def count(n, iso):
            return sum(1 for _ in pk.semigroups.enumerate_semigroups(n, upto_iso=iso))

        run = {"ranks": ranks, "count": count}
        return [(kind, lambda f=run[kind], a=args: f(*a)) for kind, args in self._items(state)]

    def check(self, pk, state, results):
        failures = {}
        for q, ((kind, args), result) in enumerate(zip(self._items(state), results)):
            if result is None:
                continue
            if kind == "count":
                reason = oracles.check_count(*args, result)
            else:
                reason = next(filter(None, (oracles.check_rank(*args, pv, r)
                                            for pv, r in result.items())), None)
                reason = reason or oracles.check_rank_lattice(
                    {pv: r[0] for pv, r in result.items()})
            if reason:
                failures[q] = reason
        return failures

    def profile(self, state, results):
        ranks = [r[0] for (kind, _), res in zip(self._items(state), results)
                 if kind == "ranks" and res for r in res.values()]
        return {"pairs": len(state["pairs"]), "pseudovarieties": sorted(state["defs"]),
                "alphabet_sizes": dict(collections.Counter(
                    len(set(u + v)) for u, v in state["pairs"])),
                "strata": {" ".join(map(str, k)): n for k, n in corpus.PAIR_STRATA.items()},
                "unseparated_share": round(sum(r is None for r in ranks) / len(ranks), 3),
                "rank_histogram": dict(collections.Counter(str(r) for r in ranks))}


class Cli:
    """A fixed mix of all 13 subcommand shapes, one process per invocation."""

    def build(self, pk, seed):
        return {"regexes": corpus.closure_regexes(pk, seed), "seed": seed}

    def warm(self, pk, state):
        directory = OUT / f"cli-tables-{state['seed']}"
        directory.mkdir(parents=True, exist_ok=True)
        tables = []
        for k, text in enumerate(state["regexes"]):
            res = pk.languages.syntactic_semigroup(pk.languages.parse_regex(text, "ab"), "ab")
            monoid = pk.semigroups.monoid_of(res.semigroup)
            data = monoid.to_json_dict()
            data["generators"] = sorted(set(res.morphism.letter_image) | {monoid.identity})
            path = directory / f"table{k}.json"
            path.write_text(json.dumps(data))
            tables.append((str(path), monoid.order))
        state["tables"] = tables
        state["commands"] = self._commands(state)

    def _commands(self, state):
        rng = random.Random(f"cli:{state['seed']}")
        pvs = ["S", "A", "G", "J", "Sl", "N", "CR"]
        regexes = state["regexes"]
        by_order = sorted(range(len(state["tables"])), key=lambda k: state["tables"][k][1])
        small = [k for k in by_order if state["tables"][k][1] < corpus.CLI_LARGE_TABLE]
        large = [k for k in by_order if state["tables"][k][1] >= corpus.CLI_LARGE_TABLE]

        def picks(count, small=small):
            """Corpus indices: the same number of small and large monoids for
            every seed, and the largest once, so the peak RSS child repeats."""
            half = (count + 1) // 2
            return ([rng.choice(small) for _ in range(half)] + [by_order[-1]]
                    + [rng.choice(large) for _ in range(count - half - 1)])

        # pointlike through the one-letter-per-element morphism: on tables of
        # 20-37 elements a few subsets take 0.5 s and 50 MB more, so the small
        # picks stay at <= 16 elements (closure covers pointlike at any size)
        tiny = [k for k in small if state["tables"][k][1] <= corpus.CLI_POINTLIKE_SMALL]

        def element_list(order, size):
            return ",".join(map(str, corpus.subset(rng, order, size)))

        def table_argv(shape, path, order):
            if shape == "member":
                return ["member", "--table", path, "--pv", rng.choice(pvs)]
            if shape == "kernel":
                return ["kernel", "--table", path] + ["--trace"] * rng.randint(0, 1)
            if shape == "pointlike":
                return ["pointlike", "--table", path, "--set", element_list(order, 2)]
            if shape == "inevitable-loop":
                return ["inevitable", "--table", path, "--system", "loop",
                        "--y", str(rng.randrange(order))]
            if shape == "inevitable-two-vertex":
                return ["inevitable", "--table", path, "--system", "two-vertex",
                        "--targets", element_list(order, 2)]
            return ["omega", "--table", path, "--element", str(rng.randrange(order))]

        def regex_argv(shape, text):
            if shape == "syntactic":
                return ["syntactic", "--lang", text]
            if shape == "separate":
                return ["separate", "--word", corpus.word(rng, "ab", 2, 8), "--lang", text,
                        "--certificate"]
            return ["closure", "--lang", text, "--alphabet", "ab",
                    "--word", corpus.word(rng, "ab", 1, 8), "--word", corpus.word(rng, "ab", 1, 8)]

        out = []
        for shape, count in corpus.CLI_MIX.items():
            if shape == "metric":
                for _ in range(count):
                    pv, u, v = corpus.full_scan_pair(rng)
                    out.append((shape, ["metric", "--u", u, "--v", v, "--pv", pv]))
            elif shape == "enumerate":
                for order, labelled in corpus.CLI_ENUMERATIONS:
                    argv = ["enumerate", "--order", str(order), "--count-only"]
                    out.append((shape, argv + ["--all-tables"] * labelled))
            elif shape in ("syntactic", "separate", "closure"):
                out += [(shape, regex_argv(shape, regexes[k])) for k in picks(count)]
            elif shape == "entropy":
                out += [(shape, ["entropy", "--lang", corpus.entropy_regex(rng)])
                        for _ in range(count)]
            elif shape == "primitive":
                out += [(shape, ["primitive", "--substitution", corpus.substitution(rng)])
                        for _ in range(count)]
            else:
                pool = tiny if shape in ("pointlike", "inevitable-two-vertex") else small
                out += [(shape, table_argv(shape, *state["tables"][k]))
                        for k in picks(count, pool)]
        rng.shuffle(out)
        return out

    def queries(self, pk, state, child=None):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

        def run(argv):
            proc = subprocess.run([sys.executable, "-m", "profinite_kit.cli", *argv],
                                  cwd=ROOT, env=env, capture_output=True, text=True)
            return proc.returncode, proc.stdout

        def checked_exit(argv):
            code, stdout = (child or run)(argv)
            if code != 0:
                try:
                    error = json.loads(stdout)["data"]["error"]
                except (json.JSONDecodeError, KeyError, TypeError):
                    error = stdout.strip()[-200:]
                raise RuntimeError(f"exit {code}: {error}")
            return stdout

        return [(shape, lambda a=argv: checked_exit(a)) for shape, argv in state["commands"]]

    @staticmethod
    def known_failure(state, index, reason):
        """ROADMAP item 4: pointlike and the two-vertex system build a morphism
        with one letter per element, which runs out of letters above 37."""
        return (state["commands"][index][0] in ("pointlike", "inevitable-two-vertex")
                and "canonical letter supply" in reason)

    def check(self, pk, state, results):
        failures = {}
        for q, ((shape, argv), stdout) in enumerate(zip(state["commands"], results)):
            reason = stdout is not None and self._check_one(shape, argv, stdout)
            if reason:
                failures[q] = reason
        return failures

    @staticmethod
    def _check_one(shape, argv, stdout):
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError:
            return "output is not JSON"
        if payload.get("schema") != SCHEMA or payload.get("status") != "ok":
            return "wrong schema or status"
        expected = {
            "metric": "rank", "enumerate": "count", "syntactic": "semigroup", "member": "member",
            "separate": "separable", "closure": "members", "kernel": "kernel",
            "pointlike": "pointlike", "inevitable-loop": "inevitable",
            "inevitable-two-vertex": "inevitable", "omega": "omega", "entropy": "entropy",
            "primitive": "primitive",
        }[shape]
        data = payload["data"]
        if expected not in data:
            return f"payload lacks {expected!r}"
        if shape == "enumerate":
            return oracles.check_count(int(argv[2]), "--all-tables" not in argv, data["count"])
        return None

    def profile(self, state, results):
        return {"subcommand_mix": dict(collections.Counter(s for s, _ in state["commands"])),
                "table_orders": order_histogram(o for _, o in state["tables"]),
                "alphabet_sizes": {"2": len(state["regexes"])}}


WORKLOADS = {"syntactic": Syntactic(), "closure": Closure(), "search": Search(), "cli": Cli()}

"""Set-up and one op per workload.

Every call into the library goes through ``tr.call(span, fn, *args)``: a
straight call when untraced, a span when traced.  Span names are
``<module>.<what>``, so the module is the layer.  The library is imported
inside the set-up functions, because set-up time starts at a fresh process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from gen import DOMAIN, size_bin

#: Core ring ops in one ring() call.
RING_OPS = 11


def cli_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# -- first-order -------------------------------------------------------------------------


def setup_first_order(spec, tr):
    from monadica import calculus, core, expr

    def decode(wire):
        return core.from_dict(json.loads(wire))

    def encode(value):
        return json.dumps(core.to_dict(value))

    def ring(x, v, c, p, m, c2):
        num = core.add(core.mul(v, x), core.pow_nat(x, p))
        den = core.root(core.add(core.mul(x, x), c), m)
        return core.add(core.div(num, den), core.inv(core.add(core.pow_nat(v, 2), c2)))

    texts = spec["functions"]
    exts = [
        tr.call("calculus.on_interval", calculus.NaturalExtension.on_interval,
                expr.parse(t), -DOMAIN, DOMAIN)
        for t in texts
    ]
    nodes = spec["nodes"]
    parse, gen_eval = expr.parse, calculus.gen_eval

    def op(o, tr):
        i = o["f"]
        text, ext, n = texts[i], exts[i], nodes[i]
        c, p, m, c2 = o["ring"]
        rows = []
        for wire in o["points"]:
            x = tr.call("core.decode", decode, wire)
            g = tr.call("calculus.gen_eval", gen_eval, tr.call("expr.parse", parse, text), x)
            h = tr.call("calculus.eval_at", ext.eval_at, x)
            r = tr.call("core.ring", ring, x, g, c, p, m, c2)
            rows.append([tr.call("core.encode", encode, v) for v in (g, h, r)])
        k = len(rows)
        tr.add("expr.nodes", k * n)
        tr.add("calculus.gen_eval_nodes", k * n)
        tr.add("core.ring_ops", k * RING_OPS)
        tr.add("core.dpart", o["gens"])
        tr.add("core.dpart_values", k)
        return rows

    return op


# -- higher-order ------------------------------------------------------------------------


def setup_higher_order(spec, tr):
    from monadica import calculus, core, expr, sets

    exts = [
        tr.call("calculus.on_interval", calculus.NaturalExtension.on_interval,
                expr.parse(t), -DOMAIN, DOMAIN)
        for t in spec["functions"]
    ]

    def decode(wire):
        return core.from_dict(json.loads(wire))

    def encode(value):
        return json.dumps(core.to_dict(value))

    def invert(f, y):
        return calculus.inverse_extension(f).eval_at(y)

    def op(o, tr):
        f, kind, k = exts[o["f"]], o["kind"], o["param"]
        if kind == "deriv":
            x = tr.call("core.decode", decode, o["x"])
            return json.dumps(tr.call(f"calculus.deriv_higher.k{k}", f.deriv_higher, k, x))
        if kind == "taylor":
            x = tr.call("core.decode", decode, o["x"])
            r = tr.call(f"calculus.taylor.o{k}", calculus.taylor_expand, f, o["center"], k, x)
            return json.dumps(r.to_dict())
        if kind == "mean_value":
            a = tr.call("core.decode", decode, o["a"])
            b = tr.call("core.decode", decode, o["b"])
            return json.dumps(tr.call("calculus.mean_value", calculus.mean_value_point, f, a, b))
        if kind == "image_set":
            g = tr.call("sets.hat_interval", sets.hat_interval, "closed", *o["interval"])
            image = tr.call("calculus.image_set", calculus.image_set, f, g)
            tr.add("sets.intervals_out", len(image.base.intervals))
            return tr.call("sets.encode", sets.set_to_json, image)
        y = tr.call("core.decode", decode, o["y"])
        return tr.call("core.encode", encode, tr.call("calculus.inverse", invert, f, y))

    return op


# -- set-algebra ---------------------------------------------------------------------------


def setup_set_algebra(spec, tr):
    from monadica import sets

    writes = {"union": sets.union, "intersect": sets.intersect, "difference": sets.difference}
    topology = ("interior", "closure", "boundary", "exterior")
    reads = {
        "sup": sets.sup_r,
        "inf": sets.inf_r,
        "max": sets.max_r,
        "is_open": sets.is_open,
        "is_closed": sets.is_closed,
        "is_connected": sets.is_connected,
    }

    def member_all(probes, g):
        return [sets.member(p, g) for p in probes]

    def op(o, tr):
        kind, n = o["kind"], o["n"]
        b = size_bin(n)
        left = tr.call("sets.decode", sets.set_from_json, o["a"])
        right = tr.call("sets.decode", sets.set_from_json, o["b"])
        tr.add("sets.intervals_in", 2 * n)
        if kind in writes:
            out = tr.call(f"sets.{kind}.{b}", writes[kind], left, right)
        elif kind in topology:
            out = tr.call(f"sets.topology.{b}", sets.topo, kind, left)
        elif kind == "member":
            return json.dumps(tr.call(f"sets.query.{b}", member_all, o["probes"], left))
        else:
            return json.dumps(tr.call(f"sets.query.{b}", reads[kind], left))
        tr.add("sets.intervals_out", len(out.base.intervals))
        return tr.call("sets.encode", sets.set_to_json, out)

    return op


# -- cli-cold ----------------------------------------------------------------------------------


def setup_cli_cold(spec, tr):
    """The runner needs nothing for this workload; set-up is what every
    command pays before its verb runs: start and import the CLI."""
    import monadica.cli  # noqa: F401

    env = cli_env(spec["src"])

    def op(o, tr):
        proc = subprocess.run(
            [sys.executable, "-m", "monadica.cli", *o["argv"]],
            capture_output=True, text=True, env=env, timeout=120,
        )
        return {"code": proc.returncode, "out": proc.stdout}

    return op


def replay_cli():
    """The library calls each CLI verb makes, in-process, so the traced run
    can split a command's time by layer."""
    from monadica import calculus, core, expr, seq, sets

    set_ops = {
        "union": sets.union, "intersect": sets.intersect, "difference": sets.difference,
        "sup": sets.sup_r, "inf": sets.inf_r, "is_connected": sets.is_connected,
    }

    def op(o, tr):
        argv = o["argv"]
        verb = o["verb"]
        if verb == "sets":
            name = argv[1]
            args = [tr.call("sets.decode", sets.set_from_json, a) for a in argv[2:]]
            tr.add("sets.intervals_in", sum(len(g.base.intervals) for g in args))
            fn = set_ops.get(name)
            if fn is None:
                out = tr.call("sets.topology.small", sets.topo, name, *args)
            elif name in ("union", "intersect", "difference"):
                out = tr.call(f"sets.{name}.small", fn, *args)
            else:
                return tr.call("sets.query.small", fn, *args)
            tr.add("sets.intervals_out", len(out.base.intervals))
            return tr.call("sets.encode", sets.set_to_json, out)
        if verb == "seq":
            x = tr.call("core.decode", core.from_json, argv[2])
            return tr.call("seq.prefix", seq.prefix, x, int(argv[4]))
        text = argv[-1]
        at = argv[argv.index("--at") + 1]
        e = tr.call("expr.parse", expr.parse, text)
        tr.add("expr.nodes", o["nodes"])
        x = tr.call("core.decode", core.from_json, at)
        if verb == "eval":
            tr.add("calculus.gen_eval_nodes", o["nodes"])
            return tr.call("core.encode", core.to_json, tr.call("calculus.gen_eval", calculus.gen_eval, e, x))
        k = o["order"]
        if verb == "diff":
            d = tr.call("expr.differentiate", expr.differentiate, e, k)
            return tr.call("expr.eval_real", d.eval_real, x.shadow)
        f = tr.call("calculus.on_interval", calculus.NaturalExtension.on_interval, e, -DOMAIN, DOMAIN)
        return tr.call(f"calculus.taylor.o{k}", calculus.taylor_expand, f, o["center"], k, x)

    return op


SETUP = {
    "first-order": setup_first_order,
    "higher-order": setup_higher_order,
    "set-algebra": setup_set_algebra,
    "cli-cold": setup_cli_cold,
}

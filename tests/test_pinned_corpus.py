"""A pinned behaviour corpus: seeded inputs whose results keep their bytes.

Each family draws a seeded corpus and renders every case as text: a set's
JSON with its active-set flags, a verifier report's JSON, the CLI's output,
or an error's type and text.  ``PINS`` holds per family the sha256 over the
cases' hashes and the first four hex digits of each case's hash, so a
mismatch names the family and the first case that moved.

A deliberate change of a value or a message updates the pins: print the
new ones with ``PYTHONPATH=src python tests/test_pinned_corpus.py``, and
say in CHANGES.md which family moved and why.
"""

import contextlib
import hashlib
import io
import json
import random

import pytest

from dirsubdiff.cli import main
from dirsubdiff.corpus import get_rng, random_directed_set, random_rule_pair
from dirsubdiff.dirset import ActiveSetInfo, SphereGrid, inf, sup
from dirsubdiff.engine import directed_subdiff
from dirsubdiff.expr import ExprError, evaluate
from dirsubdiff.theorems import (
    verify_dirderiv_fixpoint,
    verify_max_rule,
    verify_min_rule,
    verify_product_rule,
    verify_quotient_rule,
    verify_sum_rule,
)
from test_flat import GRIDS, planted
from test_sweep import _SMALL_CONSTANTS, _random_kinked


def _flags(info):
    return f"ties={info.ties} borderline={info.borderline}"


def _outcome(compute):
    """``compute()``'s text, or the type and text of the error it raises."""
    try:
        return compute()
    except (ValueError, ExprError) as exc:  # the package's typed errors are pinned too
        return f"{type(exc).__name__}: {exc}"


def _kinked(dim, grid, count, seed):
    """Kinked expressions with extreme constants over ``dim`` variables at
    points with zero coordinates, where their kinks tie; every second one
    meets the extreme constants only through its last variable."""
    rng = random.Random(seed)
    variables = tuple(range(dim))
    for _ in range(count):
        x = tuple(rng.choice((0.0, 0.0, 0.5, -1.0)) for _ in variables)
        e = _random_kinked(rng, 4, variables)
        if rng.random() < 0.5:
            e = _random_kinked(rng, 3, variables[-1:]) + _random_kinked(
                rng, 3, variables, _SMALL_CONSTANTS)

        def compute():
            info = ActiveSetInfo()
            s = directed_subdiff(e, x, grid, info=info)
            return s.to_json(indent=None) + _flags(info)

        yield f"{e!r} at {x}", _outcome(compute)


def kinked_2d():
    return _kinked(2, SphereGrid.circle(360), 200, 21)


def kinked_3d():
    return _kinked(3, SphereGrid.sphere(4, 8, 16), 200, 22)


def lattice():
    """sup and inf of seeded families of dimensions 1 to 3 whose members
    copy a share of the first member's entries on every level, exactly or
    inside the activity and borderline bands (``test_flat.planted``)."""
    for dim in (1, 2, 3):
        rng = get_rng(300 + dim)
        for k in range(16):
            base = random_directed_set(rng, dim, GRIDS[dim])
            family = [base] + [planted(rng, base, rng.choice((0.25, 0.5, 0.9)))
                               for _ in range(rng.randint(1, 4))]
            for rtol in (1e-9, 1e-8):
                for op in (sup, inf):
                    info = ActiveSetInfo()
                    out = op(family, rtol, info)
                    yield (f"dim {dim} family {k} {op.__name__} rtol {rtol}",
                           out.to_json(indent=None) + _flags(info))


def rules():
    """The rule verifiers' reports on :func:`random_rule_pair` draws."""
    rng = get_rng(23)
    grid = SphereGrid.circle(90)
    for k in range(60):
        f1, f2, x = random_rule_pair(rng)
        checks = {
            "sum": lambda: verify_sum_rule(f1, f2, 1.5, -0.75, x, grid),
            "product": lambda: verify_product_rule(f1, f2, x, grid),
            "max": lambda: verify_max_rule((f1, f2), x, grid),
            "min": lambda: verify_min_rule((f1, f2), x, grid),
            "fixpoint": lambda: verify_dirderiv_fixpoint(f1, x, grid),
        }
        if evaluate(f2, x) != 0.0:
            checks["quotient"] = lambda: verify_quotient_rule(f1, f2, x, grid)
        for rule, check in checks.items():
            yield (f"draw {k} {rule}: {f1!r}, {f2!r} at {x}",
                   _outcome(lambda: json.dumps(check().to_json_dict())))


def verify_random():
    """The exit code and stdout of ``dirsubdiff verify --random``."""
    for seed in (0, 1):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(["verify", "--random", "8", "-M", "90", "--seed", str(seed)])
        yield f"seed {seed}", f"exit {rc}\n{out.getvalue()}"


FAMILIES = {f.__name__: f for f in (kinked_2d, kinked_3d, lattice, rules, verify_random)}


def pins(family):
    """The sha256 over the cases' hashes and each case's first four hex
    digits, with the cases' names."""
    names, hashes = [], []
    for name, text in FAMILIES[family]():
        names.append(name)
        hashes.append(hashlib.sha256(text.encode()).hexdigest())
    return hashlib.sha256("".join(hashes).encode()).hexdigest(), "".join(h[:4] for h in hashes), names


PINS = {
    'kinked_2d': (
        'f6fb8d84c515dac0575fb84f9d0b13a13eef2c84b7c0e4b3edfef4824745e869',
        '138298bcad93e47e5cce1ffbb42018fc70414d37ca3c3dd4f814d9c98855fba3'
        'b420bc0a060f40cfad935cce18fc2c3d72a390699b565802e7e361c640cf6951'
        '0110bc0a8b4d8239704140cfec2b00b2b00895dc31069b5640cf67f45d1d759e'
        '6bb717eaad936a039b565cce57065cceb9e982e5c5a74d3c5cce4237fde31e3b'
        '5cce89ea94c7ff5540cf2392423740cf5d5e60ae40cfed0b40cfba559b5661c6'
        '5cce423740cf2d3467f47689dd7edcb9e35da1e5fe5367f4d9c3b4205cce9c65'
        '423798cc40cf63c6423767f403c2ad93bc0ac2ff14225cce2392f7afad932f22'
        '7d5c2f22b4209b5673462ed0844329f5fe535cceb1a84be33aad40cf4be3ed0b'
        '9b5661c64802b992cc4a5cce5cceadcf26baf96e6bb7ab2ec103ad93dcb9d64c'
        '6c9d95f6cfb7423740cf4237ca13d5f80defb4202ed0f36e568f28a902c026da'
        '07ab29e7b8eab3839385ee992bc231695ccead93d61d67f4bec8ad9340cf5cce'
        '67aa80ccad939b5640cfad93e8085cce14e518f4dc039b5622fa00b2fb9ce8bb'
        '40cf82902f136af74be300cc8855bec8',
    ),
    'kinked_3d': (
        '838612685d89bdbc796e2ca8fc6bcc7129d14fe63fbdf8e280166d57c3d86a43',
        '52e3ad934237ad9360f30c377ac235e6db0dabbdafce8e941fba60f3bc71885f'
        'fe1d885fba55ad93d195bd446f0cad93b7b75ce48e947f7fac1ded61d378ad93'
        '626535e6a4187f7f909f8e94e97fcda38e94ad936b98d9307f7fb50a15c463f7'
        '2f1e534814a123f4ed61826bed6194690edd75e1eb83885fad938e94f81aa418'
        'ad93dc26ad9315c4ebb76778a72c89030625a3d5ad935f5b4b024237052a4237'
        '54dd08fdbe855fcaf4b9c2ba423760f3830b787d5f5b5348052a62cd08c55f5b'
        'b61ec2ba8e94ad938684423760f30c564237dd2b8e9460f33c6f534800d9d6ff'
        '4b2e0ca744e16dbc96288e94366519b5c2baf2a5d91754ddc2ba45e4976200b9'
        'ad938e943dfe0c56d8c5a41802ce40ff6dbcb3bf82e849ad42375cba42373204'
        '509c5f5b60f3ad93e1bd5f5b0b7d784aec3cec3c5f5b052a53488e94aa639819'
        'dd2bc2ba5f5b8e941dd5623eec3ceeb460f36dbc53b6bd44c2bad911d97ead93'
        '322353480c37ceab40a1ee410c37a418334c1038d27288a3ad93456da95ab3bf'
        '8d5e85bc0a699ea852039ea860f3bd88',
    ),
    'lattice': (
        'dcf148d2de7f2e02bf065bd87167c8b3b193c0648fe5424b299a74c521b7f358',
        '759b2ba4759b2ba4ab321e9fab321e9ff573f573f573f5732b11a4302b11a430'
        'cb0567a8cb0567a81e6cb8221e6cb822bcce6f39bcce6f39294d13bc294d13bc'
        'b6e98fcab6e98fcac6f56ec4c6f56ec43d8449bb3d8449bb04213f9504213f95'
        '6e90ad076e90ad07d9a3a9d4d9a3a9d409bec6aa09bec6aaf2f51572f2f51572'
        '41163417efcd5206b7dd8eb007644abdbc0314c30349a56ab9bfa87dd832bc47'
        '84a62a8882b2dd88e8d90dee1ea76b1e908141f4a3a9c800edaee245edaee245'
        '1f89418c1f8969fada98982e317330b5bc3f3acd24ce641e96e3da9657a9deda'
        '3ad95cf630d5d5f10678e111636f988a59f31e0b52d99c3614b052eeee6f2181'
        '4c45408a4c45408abd095f14d67eee9f03eb6b0ccbf2caf42c516673e42932ec'
        '473140f56bd243e6fad00bf7315ca9745832b7a027a8443d5968b817c9d93f90'
        'd1f67c48aee023cc05c973ae45aa148da64e743badf0141c7214e2560512c145'
        '017dd18816c9d18853eeaa65bb0e5acb97b5e53bd69cd34ae71989a04de6fffe',
    ),
    'rules': (
        '3ef97d1fb8287c307c30790df217410fc0b4356f6a62296fdfa309035ac25e5f',
        'b02fcc762d9b7afb1a83891ee33bb0ac9cff29a4055c39ee3c80a330ef588753'
        '23e4fee1bdf2f9a341342492b70b8c84c2f44994871da6bdcb101dca8192e7b4'
        '74d8af0fa90bbd4c6aa0aabce96c8e2c03ab26f61ad955ea92fe5d1adbb54353'
        'b0b79f2fb28bad9e4861ce6552e40b8e747ae0089eac1bd402aec86b9ca3c0cd'
        'cb3e87b36c9dd6b50cb1bf50184586c841107e27d484eb98c12d5d5b18c4104e'
        '027f69592f620f53145bf081b57d6d515d28bcaa7ba337774624b8e94df43ab9'
        'b59bf0bfa9625c58add7117779dae9cdfba6fbc9b4cf7d7bb8451ea59945fb71'
        'a4c231020393772e86b9b407e8837bf0df3df4b1d7260658a0723a02a1cf7bbc'
        'e9d6ced8ae65bbbf1a22b53cea73c95dfcc7f9324ff5ac895cccf204ccfab68c'
        'cd59dadfdcb32c1086adaba64de6a033566f9991ca191280ae2facae02269673'
        'eb230a78612f934a08e229393831727df901072d96c093f5a1398cc2708be7d4'
        '5e1058438a41692c55b7fe9a9c76da00866835c82f7d75ce8e0be1182e6bc46b'
        '4519cbedea8dd72b982b21265b63a884a0271f73bec7f67ac866e4df55695cbd'
        '49c8fe0a0bc5b18331868329bc993ec9eea1af58a0b7520f6a75e7d5ac68231f'
        '886bf0a9f20d75200fe1afea718b38fa58cf6c792a03f525eab04c1405c2c3d7'
        '8a4e8dd806e75169e48453f7c3dd13e4f5bca68254b5884514d9d03583961ca2'
        'c2f9c04fb6ca9382937923ccdf179450bb078ef2078c7d860303ed605e9ba862'
        'f8c48a46d655b2dc1247814daa5718298ca51053e845101ef525dc48ef778c61'
        '0b07b49a18d5bd57ff7b934f4a4c55b12dc1ae68648746bada1a3e394cd35017'
        'a5034dc593baba3e49918791d1c5c3e0d28e1e6068182fb30785e073e7abe997'
        'e1db416b6a2460d9335e6232a1c19d1c3cf84690f266581b83c5e7413c2fad6a'
        '1d656383ed61665ae58c7df2af04c7f714757d0699a6e50afb6e6684be1247d8'
        'b65b8c6a8b1118d5e12c5b7163d6954c',
    ),
    'verify_random': (
        'f58d39decd9a5704952317049baa6b95435d32b9de62a0bbe6b01ec6fae77664',
        'e28e3e67',
    ),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_pinned_corpus_keeps_its_bytes(family):
    digest, short, names = pins(family)
    want_digest, want_short = PINS[family]
    if digest == want_digest:
        return
    cases = [short[i:i + 4] for i in range(0, len(short), 4)]
    want = [want_short[i:i + 4] for i in range(0, len(want_short), 4)]
    first = next((i for i, (a, b) in enumerate(zip(cases, want)) if a != b), None)
    if first is not None:
        where = f"case {first}, {names[first]}"
    elif len(cases) != len(want):
        where = f"case {min(len(cases), len(want))}: {len(cases)} cases, {len(want)} pinned"
    else:
        where = "not named: every case keeps its pinned prefix"
    pytest.fail(f"family {family} moved; the first case that differs is {where}")


if __name__ == "__main__":
    print("PINS = {")
    for family in FAMILIES:
        digest, short, _ = pins(family)
        print(f"    {family!r}: (\n        {digest!r},")
        print("\n".join(f"        {short[i:i + 64]!r}" for i in range(0, len(short), 64)) + ",\n    ),")
    print("}")

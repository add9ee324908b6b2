"""Deterministic synthetic text for desk-scale experiments.

Two disjoint domains are available: "chronicle" (harbor-town narrative prose)
and "ledger" (inventory records, digit-heavy).  Both are template-expanded
from fixed word banks with a counter-based generator, so a seed fully
determines the text on every platform.  The byte inventory (upper and lower
case, digits, punctuation) exceeds 64 distinct values, putting the uniform
baseline above 6 bits per byte, while the template structure keeps the true
entropy low enough that small models learn it quickly.

Run as a script to write train/valid/test splits:
  python -m rnnlab.corpus --out DIR [--bytes N] [--seed S] [--eval-two-domain]
"""

from __future__ import annotations

import argparse
import os
import sys

from .numerics import Rng

NAMES = [
    "Abner", "Brigid", "Caleb", "Dorcas", "Elias", "Freya", "Gideon", "Hattie",
    "Ivo", "Jonas", "Keturah", "Lemuel", "Mirela", "Noble", "Osric", "Phineas",
    "Quill", "Rosamund", "Silas", "Tobiah", "Una", "Vasco", "Wilmot", "Xanthe",
    "Yorick", "Zillah",
]

SHIPS = [
    "Meridian", "Cormorant", "Zephyr", "Quickstep", "Javelin", "Ember",
    "Gullwing", "Petrel", "Vagrant", "Kestrel", "Boxwood", "Nimbus",
]

NOUNS = [
    "harbor", "cargo", "lantern", "rigging", "quay", "tide", "ledger", "anchor",
    "mast", "cask", "wharf", "fog", "chart", "compass", "storm", "sail",
    "breakwater", "jetty", "manifest", "hold", "galley", "rope", "beacon", "keel",
]

VERBS = [
    "hauled", "lashed", "charted", "mended", "weighed", "stowed", "rigged",
    "caulked", "signalled", "moored", "ferried", "salvaged", "tallied",
    "provisioned", "scrubbed", "patched", "unloaded", "inspected", "logged",
    "secured",
]

ADJECTIVES = [
    "battered", "gleaming", "sodden", "crooked", "patient", "restless", "brackish",
    "quiet", "heavy", "narrow", "pale", "stubborn", "weathered", "brisk",
    "crowded", "empty", "jagged", "steady", "murky", "vexing", "hazy", "sea-worn",
]

PLACES = [
    "the northern quay", "the salt sheds", "the outer breakwater", "the chandlery",
    "the customs house", "the dry dock", "the fish market", "the lower wharf",
    "the signal tower", "the rope walk", "the coal yard", "the ferry landing",
    "the harbormaster's office", "the tar kettles", "the sail loft", "the mole",
]

REMARKS = [
    "the glass is falling", "the channel silts badly", "no pilot will come out",
    "the spring tide turns early", "we are short of oakum", "the mooring fees doubled",
    "the lighthouse keeps poor time", "half the crew has shore leave",
]

CHRONICLE_TEMPLATES = [
    "{name} {verb} the {adj} {noun} at {place}.",
    "At {place}, {name} {verb} the {noun} before the {adj} {noun2}.",
    "The {ship} reached {place} in the year {year}, her {noun} {adj}.",
    "{name} said, \"{remark},\" and {verb} the {noun} anyway.",
    "By morning the {adj} {noun} had drifted past {place}.",
    "{name} and {name2} {verb} {count} casks of {noun} onto the {ship}.",
    "A {adj} wind off {place} kept the {ship} waiting; {name} {verb} the {noun}.",
    "The {noun} at {place} was {adj} again, so {name} {verb} it twice.",
    "In {year} the {ship} carried {count} tons of {noun} from {place}.",
    "\"{remark}?\" asked {name}; nobody at {place} answered.",
    "{name} {verb} the {noun}, the {noun2}, and half of {place}.",
    "Word came from {place} that the {ship} had {verb} her {adj} {noun}.",
    "{name}'s log for {year} reads: {count} casks of {noun} ({adj}).",
]

ITEMS = [
    "waxed spools", "copper kettles", "tallow blocks", "iron hinges", "glass jars",
    "oak dowels", "felt pads", "brass ferrules", "jute sacks", "zinc plates",
    "quince pulp", "dye packets", "mica sheets", "birch handles", "enamel basins",
    "solder coils", "pewter mugs", "flax bundles", "amber beads", "kiln bricks",
]

UNITS = ["gross", "dozen", "bales", "crates", "bundles", "pairs", "sheets", "kegs"]

CONDITIONS = [
    "sound", "water-damaged", "resealed", "unsorted", "promised", "returned",
    "spoken for", "mislabeled", "part-paid", "held at customs",
]

LEDGER_TEMPLATES = [
    "Entry {num}: {item}, count {count} ({cond}).",
    "Receipt {num}; {item}; net weight {count} pounds; {cond}.",
    "Bin {bin}: {count} {unit} of {item}, marked {cond}.",
    "Invoice {num} covers {count} {unit} of {item} plus carriage.",
    "Stocktake {num}: {item} down to {count}; reorder at {count2}.",
    "Transfer {num}: {count} {unit} of {item} to bin {bin} ({cond}).",
    "Adjustment {num}: {item} recounted, {count} not {count2}; {cond}.",
    "Quote {num}: {item} at {count} pence per {unit}, firm to day {count2}.",
]


def _pick(rng: Rng, bank):
    return bank[int(rng.integers(0, len(bank)))]


def _chronicle_sentence(rng: Rng) -> str:
    template = _pick(rng, CHRONICLE_TEMPLATES)
    return template.format(
        name=_pick(rng, NAMES),
        name2=_pick(rng, NAMES),
        verb=_pick(rng, VERBS),
        adj=_pick(rng, ADJECTIVES),
        noun=_pick(rng, NOUNS),
        noun2=_pick(rng, NOUNS),
        place=_pick(rng, PLACES),
        ship=_pick(rng, SHIPS),
        remark=_pick(rng, REMARKS),
        year=1800 + int(rng.integers(0, 100)),
        count=int(rng.integers(2, 60)),
    )


def _ledger_line(rng: Rng) -> str:
    template = _pick(rng, LEDGER_TEMPLATES)
    return template.format(
        item=_pick(rng, ITEMS),
        unit=_pick(rng, UNITS),
        cond=_pick(rng, CONDITIONS),
        num=int(rng.integers(1, 1000)),
        bin="ABCDEF"[int(rng.integers(0, 6))] + str(int(rng.integers(1, 10))),
        count=int(rng.integers(2, 500)),
        count2=int(rng.integers(2, 500)),
    )


def chronicle_text(rng: Rng, approx_bytes: int) -> str:
    """Narrative prose in sentences grouped into paragraphs."""
    parts = []
    size = 0
    sentences_left = int(rng.integers(3, 8))
    while size < approx_bytes:
        sentence = _chronicle_sentence(rng)
        sentences_left -= 1
        if sentences_left == 0:
            sentence += "\n"
            sentences_left = int(rng.integers(3, 8))
        else:
            sentence += " "
        parts.append(sentence)
        size += len(sentence)
    return "".join(parts)


def ledger_text(rng: Rng, approx_bytes: int) -> str:
    """Inventory records, one per line."""
    parts = []
    size = 0
    while size < approx_bytes:
        line = _ledger_line(rng) + "\n"
        parts.append(line)
        size += len(line)
    return "".join(parts)


def two_domain_text(rng: Rng, bytes_first: int, bytes_second: int) -> str:
    """A chronicle segment followed by a ledger segment (one stream with an
    abrupt domain shift, for test-time adaptation experiments)."""
    return chronicle_text(rng, bytes_first) + ledger_text(rng, bytes_second)


def write_splits(
    out_dir,
    total_bytes: int = 1_000_000,
    seed: int = 7,
    eval_two_domain: bool = False,
    valid_fraction: float = 0.05,
    test_fraction: float = 0.05,
):
    """Write train/valid/test files; returns their paths.

    Training text is always single-domain chronicle.  With eval_two_domain
    the valid and test splits each get a chronicle half and a ledger half.
    A negative seed, or a size that leaves a split empty, is refused with a
    ValueError before anything is written.
    """
    valid, test = int(total_bytes * valid_fraction), int(total_bytes * test_fraction)
    sizes = {"train": total_bytes - valid - test, "valid": valid, "test": test}
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if min(sizes.values()) < 1:
        raise ValueError(f"{total_bytes} bytes leave a split empty (sizes {sizes})")
    os.makedirs(out_dir, exist_ok=True)
    rng = Rng(seed)
    paths = {}
    for split in ("train", "valid", "test"):
        size = sizes[split]
        if eval_two_domain and split != "train":
            text = two_domain_text(rng, size // 2, size - size // 2)
        else:
            text = chronicle_text(rng, size)
        path = os.path.join(out_dir, f"{split}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths[split] = path
    return paths


def main(argv=None):
    parser = argparse.ArgumentParser(description="generate a synthetic desk corpus")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--bytes", type=int, default=1_000_000, help="total corpus size")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--eval-two-domain",
        action="store_true",
        help="give valid/test an abrupt chronicle-to-ledger domain shift",
    )
    args = parser.parse_args(argv)
    try:
        paths = write_splits(args.out, args.bytes, args.seed, args.eval_two_domain)
    except ValueError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except OSError as err:  # a file where the directory belongs, a directory it may not write, ...
        print(f"file error: {err}", file=sys.stderr)
        return 1
    for split, path in sorted(paths.items()):
        print(f"{split}: {path} ({os.path.getsize(path)} bytes)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

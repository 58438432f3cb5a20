"""Reading and writing matroids as JSON.

Two input forms are accepted: an explicit base list, or rank bounds on
prescribed sets.  Output is always the canonical base form: ground in
its own order, bases in ascending bitmask order, each base spelled in
ground order.  Formatting a canonical file reproduces it byte for byte.
"""

import json

from .errors import FormatError
from .matroid import matroid_from_bases, matroid_from_flat_constraints
from .setfam import GroundSet


def matroid_to_dict(m):
    g = m.ground
    return {
        "ground": list(g.labels),
        "bases": [list(g.labels_of(b)) for b in m.bases],
    }


def matroid_to_json(m):
    d = matroid_to_dict(m)
    rows = ",\n  ".join(json.dumps(b) for b in d["bases"])
    return '{"ground": %s,\n "bases": [\n  %s\n ]}\n' % (
        json.dumps(d["ground"]), rows)


def _is_label_list(value):
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def _label_mask(ground, value, what):
    """Mask of a JSON list of distinct labels of the ground set."""
    if not _is_label_list(value):
        raise FormatError("%s must be a list of labels, got %s"
                          % (what, json.dumps(value)))
    if len(set(value)) != len(value):
        raise FormatError("%s repeats a label: %s" % (what, json.dumps(value)))
    return ground.mask(value)


def matroid_from_dict(data):
    """Build a matroid from parsed JSON; constraint violations in the
    base list surface as the construction errors themselves.  Labels are
    strings, and every base or flat set is a list of distinct labels."""
    if not isinstance(data, dict):
        raise FormatError("expected a JSON object")
    if "ground" not in data:
        raise FormatError("missing key 'ground'")
    if not _is_label_list(data["ground"]):
        raise FormatError("'ground' must be a list of string labels")
    ground = GroundSet(data["ground"])
    has_bases = "bases" in data
    has_flats = "flats" in data
    if has_bases == has_flats:
        raise FormatError("exactly one of 'bases' or 'flats' must be present")
    if has_bases:
        if not isinstance(data["bases"], list):
            raise FormatError("'bases' must be a list of label lists")
        return matroid_from_bases(
            ground, [_label_mask(ground, b, "a base") for b in data["bases"]])
    rank = data.get("rank")
    if not isinstance(rank, int) or isinstance(rank, bool):
        raise FormatError("the 'flats' form needs an integer 'rank'")
    if not isinstance(data["flats"], list):
        raise FormatError("'flats' must be a list of {set, rank} objects")
    pairs = []
    for item in data["flats"]:
        if (not isinstance(item, dict) or "set" not in item
                or "rank" not in item):
            raise FormatError("each flat needs keys 'set' and 'rank'")
        if not isinstance(item["rank"], int) or isinstance(item["rank"], bool):
            raise FormatError("flat rank must be an integer")
        pairs.append((_label_mask(ground, item["set"], "a flat set"),
                      item["rank"]))
    return matroid_from_flat_constraints(ground, rank, pairs)


def matroid_from_json(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError("invalid JSON: %s" % e)
    return matroid_from_dict(data)


def load_matroid(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return matroid_from_json(text)


def save_matroid(m, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(matroid_to_json(m))

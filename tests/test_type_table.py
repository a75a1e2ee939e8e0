"""The finite Cartan types as ``from_cartan_type`` builds them and
``classify`` names them, with the labels and refusal texts written out
here rather than read from the engine: every type of rank at most 8 in
both realizations, BC1 to BC8, and the exact refusal of each kind of
type string the parser or the type table turns away, including which
rule speaks first when a string breaks several."""

import pytest

from rootfold.errors import UnknownTypeError
from rootfold.rootdatum import classify, from_cartan_type

# type -> the label ``classify`` gives it; the isomorphisms of low rank
# are C2 = B2 and D3 = A3
LABELS = {
    "A1": "A1", "A2": "A2", "A3": "A3", "A4": "A4",
    "A5": "A5", "A6": "A6", "A7": "A7", "A8": "A8",
    "B2": "B2", "B3": "B3", "B4": "B4", "B5": "B5", "B6": "B6", "B7": "B7", "B8": "B8",
    "C2": "B2", "C3": "C3", "C4": "C4", "C5": "C5", "C6": "C6", "C7": "C7", "C8": "C8",
    "D3": "A3", "D4": "D4", "D5": "D5", "D6": "D6", "D7": "D7", "D8": "D8",
    "E6": "E6", "E7": "E7", "E8": "E8",
    "F4": "F4",
    "G2": "G2",
}
BC_LABELS = {
    "BC1": "BC1", "BC2": "BC2", "BC3": "BC3", "BC4": "BC4",
    "BC5": "BC5", "BC6": "BC6", "BC7": "BC7", "BC8": "BC8",
}

REFUSALS = {
    # ranks the types do not have
    "E5": "E5 is not supported",
    "F3": "F3 is not supported",
    "G3": "G3 is not supported",
    "A0": "A0 is not supported",
    "B1": "B1 is not supported",
    "C1": "C1 is not supported",
    "D2": "D2 is not supported",
    "BC0": "BC0 is not supported",
    # ranks past the construction bound
    "E9": "rank 9 exceeds the supported bound of 8",
    "BC9": "rank 9 exceeds the supported bound of 8",
    "A10": "rank 10 exceeds the supported bound of 8",
    # letters, tags and empty tokens ("x" separates the factors)
    "Q3": "bad type token 'Q3' in 'Q3'",
    "A": "bad type token 'A' in 'A'",
    "BC": "bad type token 'BC' in 'BC'",
    "a2": "bad type token 'a2' in 'a2'",
    "BC2:sc": "BC types take no isogeny tag ('BC2:sc')",
    "BC2:": "BC types take no isogeny tag ('BC2:')",
    # an "x" splits the factors only where a capital letter follows
    "A2:xx": "unknown isogeny tag 'xx' (expected sc or ad)",
    "A2:sx": "unknown isogeny tag 'sx' (expected sc or ad)",
    "xA1": "bad type token '' in 'xA1'",
    "A2:qq": "unknown isogeny tag 'qq' (expected sc or ad)",
}

# a string that breaks several rules, and the refusal it gets
FIRST_REFUSALS = {
    "E9:qq": "rank 9 exceeds the supported bound of 8",
    "E5:qq": "E5 is not supported",
    "A0:qq": "A0 is not supported",
    "BC9:sc": "BC types take no isogeny tag ('BC9:sc')",
    "BC0:ad": "BC types take no isogeny tag ('BC0:ad')",
    "Q9": "bad type token 'Q9' in 'Q9'",
    # the factors are read from the left, each parsed and then built
    "E5 x Q3": "E5 is not supported",
    "Q3 x E5": "bad type token 'Q3' in 'Q3 x E5'",
    "A2:qq x E9": "unknown isogeny tag 'qq' (expected sc or ad)",
    "E9 x A2:qq": "rank 9 exceeds the supported bound of 8",
}


@pytest.mark.parametrize("tag", ["sc", "ad"])
@pytest.mark.parametrize("name", sorted(LABELS))
def test_every_finite_type_classifies_to_its_label(name, tag):
    datum = from_cartan_type(f"{name}:{tag}").datum
    assert classify(datum) == [(LABELS[name], 1)]


@pytest.mark.parametrize("name", sorted(BC_LABELS))
def test_every_bc_type_classifies_to_its_label(name):
    assert classify(from_cartan_type(name).datum) == [(BC_LABELS[name], 1)]


@pytest.mark.parametrize("spec", sorted(REFUSALS))
def test_each_refusal_has_its_text(spec):
    with pytest.raises(UnknownTypeError) as err:
        from_cartan_type(spec)
    assert str(err.value) == REFUSALS[spec]


@pytest.mark.parametrize("spec", sorted(FIRST_REFUSALS))
def test_the_first_broken_rule_speaks(spec):
    with pytest.raises(UnknownTypeError) as err:
        from_cartan_type(spec)
    assert str(err.value) == FIRST_REFUSALS[spec]

"""The mutation harness's draw: sites are picked by a seeded key of what
they are, so a change to one module leaves the sample of the others alone."""
import io
import tokenize

import mutate

MODULES = ("codes", "field", "pds")
EXTRA = "\ndef extra(x):\n    return x + 1 < 2 * x\n\n"


def _sources():
    return {name: (mutate.PACKAGE / f"{name}.py").read_text() for name in MODULES}


def _names(drawn, module):
    return [site.name for site in drawn if site.module == module]


def test_draw_from_other_modules_ignores_added_sites():
    sources = _sources()
    before = mutate.draw(sources, 45, 12)
    assert [site.module for site in before] == ["codes"] * 4 + ["field"] * 4 + ["pds"] * 4
    # new sites before field's first def shift the walk index of every site after them
    at = sources["field"].index("\ndef ")
    grown = dict(sources, field=sources["field"][:at] + EXTRA + sources["field"][at:])
    after = mutate.draw(grown, 45, 12)
    assert [site for site in after if site.module != "field"] == [
        site for site in before if site.module != "field"]
    new = {site.name for site in mutate.sites("field", grown["field"])} - {
        site.name for site in mutate.sites("field", sources["field"])}
    assert len(new) == 5  # +, <, *, 1 -> 2 and 2 -> 3
    # field's untouched sites stay drawn unless a new site takes their place
    kept = set(_names(after, "field")) - new
    assert kept <= set(_names(before, "field"))
    assert len(kept) >= 4 - len(new & set(_names(after, "field")))


def test_draw_depends_on_the_seed_and_names_each_site_once():
    sources = _sources()
    for name, source in sources.items():
        listed = mutate.sites(name, source)
        assert len({site.name for site in listed}) == len(listed)
    assert _names(mutate.draw(sources, 1, 30), "pds") != _names(mutate.draw(sources, 2, 30), "pds")
    assert mutate.draw(sources, 1, 30) == mutate.draw(dict(reversed(sources.items())), 1, 30)


def _recommented(source):
    """source with the text of every comment replaced."""
    lines = source.splitlines(keepends=True)
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            row, col = token.start
            lines[row - 1] = lines[row - 1][:col] + "# edited\n"
    return "".join(lines)


def test_editing_a_comment_draws_the_same_sites():
    sources = _sources()
    edited = {name: _recommented(source) for name, source in sources.items()}
    assert edited != sources
    for name, source in sources.items():
        assert mutate.sites(name, edited[name]) == mutate.sites(name, source)
    assert mutate.draw(edited, 51, 30) == mutate.draw(sources, 51, 30)
    # a `#` inside a string is code: editing after it renames the site
    plain, edited_string = ('x = "#1" + y  # one\n', 'x = "#2" + y  # two\n')
    assert [s.name for s in mutate.sites("m", plain)] != [
        s.name for s in mutate.sites("m", edited_string)]
    assert [s.name for s in mutate.sites("m", plain)] == [
        s.name for s in mutate.sites("m", 'x = "#1" + y  # two\n')]


def test_mutant_changes_the_drawn_site_alone():
    source = "def f(a, b):\n    return a + b < 2\n"
    changed = {site.change: mutate.mutant(source, site.index, site.slot)
               for site in mutate.sites("m", source)}
    assert changed == {
        "+ -> -": "def f(a, b):\n    return a - b < 2",
        "< -> <=": "def f(a, b):\n    return a + b <= 2",
        "2 -> 3": "def f(a, b):\n    return a + b < 3",
    }

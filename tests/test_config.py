import pytest

from nclab.config import KEYS, RunConfig, SymbolConfig, build_symbol, load_config
from nclab.errors import ConfigError, UsageError

MINIMAL = """\
[symbol]
n = 1
main = <xi>^(-1)
order = -1

[lattice]
M = 1000
"""


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_minimal_config_defaults(tmp_path):
    cfg = load_config(write(tmp_path, MINIMAL))
    assert cfg.symbol.n == 1
    assert cfg.symbol.main == "<xi>^(-1)"
    assert cfg.symbol.order == -1.0
    assert cfg.symbol.rho == 1.0
    assert cfg.M == 1000
    assert cfg.sphere_order is None
    assert cfg.residue_q == 128
    assert cfg.symmetrize is True
    sigma = build_symbol(cfg)
    assert sigma.order == -1.0


def test_unknown_key_is_fatal_with_line(tmp_path):
    bad = MINIMAL + "N = 5\n"
    with pytest.raises(ConfigError, match="unknown key 'N'"):
        load_config(write(tmp_path, bad))
    try:
        load_config(write(tmp_path, bad))
    except ConfigError as exc:
        assert exc.line == 8
    # keys that no run reads are gone, and a term index has one spelling
    # (int() reads "01" and "١" as 1): setting one is an unknown key
    removed = [
        ("cutoff", MINIMAL.replace("order = -1", "order = -1\ncutoff = 2"), 5),
        ("f0", MINIMAL + "[fit]\nf0 = 0.3\n", 9),
        ("f1", MINIMAL + "[fit]\nf1 = 0.9\n", 9),
        ("discard", MINIMAL + "[fit]\nsymmetrize = true\ndiscard = 0.5\n", 10),
        ("term_01", MINIMAL.replace("order = -1", "order = -1\nterm_0 = -1 ; 1\nterm_01 = -2 ; 0"), 6),
        ("term_١", MINIMAL.replace("order = -1", "order = -1\nterm_١ = -1 ; 1"), 5),
    ]
    for key, text, line in removed:
        with pytest.raises(ConfigError, match=f"^line {line}: unknown key '{key}'") as exc:
            load_config(write(tmp_path, text))
        assert exc.value.line == line


def test_unknown_section_is_fatal(tmp_path):
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(write(tmp_path, MINIMAL + "[misc]\nfoo = 1\n"))


def test_duplicate_key_is_fatal(tmp_path):
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(write(tmp_path, MINIMAL + "M = 2\n" ))


def test_missing_mandatory_key(tmp_path):
    text = "[symbol]\nn = 1\nmain = 1\norder = 0\n"
    with pytest.raises(ConfigError, match="missing mandatory key 'M'"):
        load_config(write(tmp_path, text))


def test_bad_value_reports_line(tmp_path):
    text = MINIMAL.replace("M = 1000", "M = many")
    with pytest.raises(ConfigError, match="bad value for 'M'"):
        load_config(write(tmp_path, text))


def test_classical_terms_parsed(tmp_path):
    text = MINIMAL + "\n".join(
        ["[quadrature]", "residue_q = 64", "", "[fit]", "symmetrize = true", ""]
    )
    text = text.replace(
        "order = -1", "order = -1\nterm_0 = -1 ; 1\nterm_1 = -2 ; 0.5"
    )
    cfg = load_config(write(tmp_path, text))
    assert cfg.symbol.terms == [(-1.0, "1"), (-2.0, "0.5")]
    assert cfg.residue_q == 64
    assert cfg.symmetrize is True
    sigma = build_symbol(cfg)
    assert len(sigma.classical) == 2


def test_wrong_degree_ladder_propagates(tmp_path):
    text = MINIMAL.replace("order = -1", "order = -1\nterm_0 = -1 ; 1\nterm_1 = -3 ; 1")
    cfg = load_config(write(tmp_path, text))
    with pytest.raises(UsageError, match="ladder"):
        build_symbol(cfg)


def test_non_contiguous_terms(tmp_path):
    text = MINIMAL.replace("order = -1", "order = -1\nterm_1 = -2 ; 1")
    with pytest.raises(ConfigError, match="contiguous"):
        load_config(write(tmp_path, text))


def test_comments_and_blank_lines(tmp_path):
    text = "# header\n\n" + MINIMAL.replace("M = 1000", "M = 1000  # inline comment")
    cfg = load_config(write(tmp_path, text))
    assert cfg.M == 1000


def test_key_outside_section(tmp_path):
    with pytest.raises(ConfigError, match="outside"):
        load_config(write(tmp_path, "n = 1\n"))


def test_bad_symmetrize_value(tmp_path):
    text = MINIMAL + "[fit]\nsymmetrize = maybe\n"
    with pytest.raises(ConfigError, match="bad value"):
        load_config(write(tmp_path, text))


def test_every_key_is_a_field_and_fields_without_default_are_mandatory():
    mandatory = set()
    for section, keys in KEYS.items():
        cls = SymbolConfig if section == "symbol" else RunConfig
        for key in keys:
            assert key in cls._fields, f"[{section}] {key} has no field"
            if key not in cls._field_defaults:
                mandatory.add(key)
    assert mandatory == {"n", "main", "order", "M"}


@pytest.mark.parametrize(
    "text, line, message",
    [
        (MINIMAL.replace("n = 1", "n = 0"), 2, "n must be >= 1, got '0'"),
        (MINIMAL.replace("M = 1000", "M = -1"), 7, "M must be >= 0, got '-1'"),
        (MINIMAL + "[quadrature]\nresidue_q = 0\n", 9, "residue_q must be >= 1, got '0'"),
        (MINIMAL + "[quadrature]\nresidue_q = -3\n", 9, "residue_q must be >= 1, got '-3'"),
        (MINIMAL + "[quadrature]\nsphere_order = 0\n", 9, "sphere_order must be >= 1, got '0'"),
        (MINIMAL + "[output]\nmatrix_format = xml\n", 9, r"matrix_format must be csv\|binary\|both, got 'xml'"),
        # assembly picks its grid: a Q line, of any value, is an unknown key
        (MINIMAL + "[quadrature]\nQ = 7\n", 9, r"unknown key 'Q' in \[quadrature\]"),
        (MINIMAL + "[quadrature]\nQ = -4\n", 9, r"unknown key 'Q' in \[quadrature\]"),
        (MINIMAL + "[quadrature]\nQ = 0\n", 9, r"unknown key 'Q' in \[quadrature\]"),
        (MINIMAL.replace("order = -1", "order = nan"), 4, "order must be finite, got 'nan'"),
        (MINIMAL.replace("order = -1", "order = -inf"), 4, "order must be finite, got '-inf'"),
        (MINIMAL.replace("order = -1", "order = 1e400"), 4, "order must be finite, got '1e400'"),
        (MINIMAL.replace("order = -1", "order = -1\nterm_0 = nan ; 1"), 5,
         "term_0 degree must be finite, got 'nan'"),
        (MINIMAL.replace("order = -1", "order = -1\nterm_0 = -1 ; 1\nterm_1 = inf ; 1"), 6,
         "term_1 degree must be finite, got 'inf'"),
        (MINIMAL.replace("order = -1", "order = -1\nrho = 2"), 5, r"rho must be in \[0, 1\], got '2'"),
        # [symbol] has no delta key: a delta line, in or out of [0, 1], is an unknown key
        (MINIMAL.replace("order = -1", "order = -1\ndelta = -0.5"), 5, r"unknown key 'delta' in \[symbol\]"),
        (MINIMAL.replace("order = -1", "order = -1\ndelta = nan"), 5, r"unknown key 'delta' in \[symbol\]"),
    ],
    ids=["n", "M", "residue_q=0", "residue_q=-3", "sphere_order", "matrix_format", "Q=7", "Q=-4", "Q=0",
         "order=nan", "order=-inf", "order=1e400", "term_0=nan", "term_1=inf", "rho=2", "delta=-0.5", "delta=nan"],
)
def test_out_of_range_values_are_fatal_with_line(tmp_path, text, line, message):
    with pytest.raises(ConfigError, match=f"^line {line}: {message}$"):
        load_config(write(tmp_path, text))


def test_quadrature_sizes_of_one_are_accepted(tmp_path):
    cfg = load_config(write(tmp_path, MINIMAL + "[quadrature]\nresidue_q = 1\nsphere_order = 1\n"))
    assert (cfg.residue_q, cfg.sphere_order) == (1, 1)

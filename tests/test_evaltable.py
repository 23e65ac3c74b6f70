import pytest

from heatcount import EvalTable


def test_csv_formatting_17_significant_digits(tmp_path):
    table = EvalTable(("abscissa", "value", "error_estimate"))
    table.append(0.1, 1.0 / 3.0, 0.0)
    table.append(2, "flag", None)
    path = tmp_path / "t.csv"
    table.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "abscissa,value,error_estimate"
    assert lines[1] == "0.10000000000000001,0.33333333333333331,0"
    assert lines[2] == "2,flag,"
    # round-trip: 17 digits reproduce the doubles exactly
    cells = lines[1].split(",")
    assert float(cells[0]) == 0.1
    assert float(cells[1]) == 1.0 / 3.0


def test_append_arity_checked():
    table = EvalTable(("a", "b"))
    with pytest.raises(ValueError):
        table.append(1.0)


def test_column_lookup():
    table = EvalTable(("a", "b"))
    table.append(1, 2)
    table.append(3, 4)
    assert table.column("b") == [2, 4]
    assert len(table.rows) == 2

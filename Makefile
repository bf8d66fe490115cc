PYTHON ?= python

.PHONY: install test bench reproduce quick-reproduce examples clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

## Regenerate every table and figure from the paper (see EXPERIMENTS.md).
reproduce:
	$(PYTHON) -m repro.bench all --json bench_results.json

quick-reproduce:
	$(PYTHON) -m repro.bench all --quick --json bench_results.json

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/red_black_debugging.py
	$(PYTHON) examples/netcols_game.py 100
	$(PYTHON) examples/jso_obfuscate.py 60
	$(PYTHON) examples/data_breakpoints.py
	$(PYTHON) examples/iterative_to_recursive.py
	$(PYTHON) examples/graph_inspection.py
	$(PYTHON) examples/profiling_trace.py

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +

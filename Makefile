PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: verify test lint help

help:
	@echo "make verify         - tier-1 gate: full test + benchmark suite (-x -q)"
	@echo "make test           - fast tier: unit/integration tests only"
	@echo "make lint           - ruff check (syntax + pyflakes rules)"

verify:
	$(PYTHON) -m pytest -x -q

test:
	$(PYTHON) -m pytest tests -x -q

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed — skipping (pip install ruff)"; \
	fi

"""One module per CLI subcommand, each with its ``run(args)``, and the ``--expect`` code."""
